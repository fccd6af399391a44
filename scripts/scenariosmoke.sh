#!/usr/bin/env bash
# scenariosmoke.sh — the scenario subsystem end to end at the process
# level. Four stages:
#
#   1. Every spec in scenarios/ must validate (-validate-only) under the
#      binary matching its campaign kind, and the kind mismatch and
#      owned-flag conflicts must fail fast with exit 2.
#   2. paper-baseline must reproduce the flag-driven default dpsmeasure
#      run byte-for-byte (timing lines aside) — the spec format adds
#      provenance, never drift.
#   3. The non-paper scenarios must run green, printing their provenance
#      line to stderr.
#   4. The defended-fleet scenarios must actually bite: both the
#      rate-limited scanner and the amplification flood must recover
#      strictly fewer hidden records than the matched undefended run.
#
# Environment: none; scales are pinned by the specs themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/dpsmeasure" ./cmd/dpsmeasure
go build -o "$work/rrscan" ./cmd/rrscan

# --- 1. every shipped spec validates under its own kind ----------------
for spec in scenarios/*.json; do
  if grep -q '"kind": "residual"' "$spec"; then bin=rrscan; else bin=dpsmeasure; fi
  out="$("$work/$bin" -scenario "$spec" -validate-only)"
  echo "$out" | grep -q "ok (sha256:" || \
    { echo "FAIL: $spec did not validate: $out"; exit 1; }
  echo "ok: $bin -validate-only $spec -> $out"
done

# Kind mismatch and flag conflicts must die at flag validation, exit 2.
expect_exit2() { # expect_exit2 <description> <cmd...>
  local desc="$1" code=0; shift
  "$@" > "$work/fail.out" 2>&1 || code=$?
  [ "$code" = 2 ] || \
    { echo "FAIL: $desc exited $code, want 2"; cat "$work/fail.out"; exit 1; }
  echo "ok: $desc -> exit 2"
}
expect_exit2 "residual spec on dpsmeasure" \
  "$work/dpsmeasure" -scenario scenarios/rate-limited-scanner.json -validate-only
expect_exit2 "dynamics spec on rrscan" \
  "$work/rrscan" -scenario scenarios/paper-baseline.json -validate-only
expect_exit2 "-scenario with owned -sites" \
  "$work/dpsmeasure" -scenario scenarios/paper-baseline.json -sites 500
expect_exit2 "missing spec file" \
  "$work/dpsmeasure" -scenario "$work/nope.json"

# --- 2. paper-baseline == flag-driven default run ----------------------
echo ">> paper-baseline byte-identity"
"$work/dpsmeasure" > "$work/flags.out" 2>/dev/null
"$work/dpsmeasure" -scenario scenarios/paper-baseline.json \
  > "$work/spec.out" 2> "$work/spec.err"
grep -q 'scenario paper-baseline (sha256:' "$work/spec.err" || \
  { echo "FAIL: no provenance line on stderr"; cat "$work/spec.err"; exit 1; }
# The single timing line is the only permitted difference.
grep -v 'world ready in' "$work/flags.out" > "$work/flags.cmp"
grep -v 'world ready in' "$work/spec.out" > "$work/spec.cmp"
diff -u "$work/flags.cmp" "$work/spec.cmp" > /dev/null || \
  { echo "FAIL: paper-baseline report differs from the flag-driven default run"; \
    diff -u "$work/flags.cmp" "$work/spec.cmp" | head -40; exit 1; }
echo "ok: paper-baseline report byte-identical to the default run"

# --- 3. the non-paper scenarios run green ------------------------------
hidden_count() { # hidden_count <report-file> -> cloudflare hidden total
  sed -n 's/^residual: .* cloudflare \([0-9]*\) hidden.*/\1/p' "$1"
}
"$work/dpsmeasure" -scenario scenarios/provider-switch-wave.json \
  > "$work/wave.out" 2> "$work/wave.err"
grep -q 'scenario provider-switch-wave' "$work/wave.err" && \
  grep -q 'dynamics: 42 days' "$work/wave.out" || \
  { echo "FAIL: provider-switch-wave did not run"; cat "$work/wave.err"; exit 1; }
echo "ok: provider-switch-wave ran ($(head -4 "$work/wave.out" | tail -1))"

for spec in rate-limited-scanner amplification-load; do
  "$work/rrscan" -scenario "scenarios/$spec.json" \
    > "$work/$spec.out" 2> "$work/$spec.err"
  grep -q "scenario $spec" "$work/$spec.err" || \
    { echo "FAIL: $spec did not run"; cat "$work/$spec.err"; exit 1; }
  echo "ok: $spec ran ($(head -4 "$work/$spec.out" | tail -1))"
done

# --- 4. the defenses must bite -----------------------------------------
# Matched undefended baseline: same population, horizon, boost, and
# serial workers as the two defended specs.
"$work/rrscan" -sites 1000 -weeks 4 -churn-boost 8 -workers 1 \
  > "$work/undefended.out" 2>/dev/null
base="$(hidden_count "$work/undefended.out")"
[ -n "$base" ] && [ "$base" -gt 0 ] || \
  { echo "FAIL: undefended baseline found no hidden records"; exit 1; }
for spec in rate-limited-scanner amplification-load; do
  got="$(hidden_count "$work/$spec.out")"
  [ -n "$got" ] && [ "$got" -lt "$base" ] || \
    { echo "FAIL: $spec recovered $got hidden records, want fewer than the undefended $base"; exit 1; }
  echo "ok: $spec degraded recall ($got hidden vs $base undefended)"
done

echo "scenariosmoke: all checks passed"
