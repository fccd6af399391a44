package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 50, true},
		{99, 50, true}, // 9.9 beyond p90
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{10000000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSetP99FollowsTailRule(t *testing.T) {
	var b bytes.Buffer
	untraced := &pass{log: &b, values: map[string]float64{}}
	untraced.setP99("short_p99", 999, 1)
	if _, ok := untraced.values["short_p99"]; ok || len(untraced.failure) != 0 || !strings.Contains(b.String(), "too few for a p99") {
		t.Errorf("untraced, 999 samples: recorded %v, failures %q, printed %q; want only the text", untraced.values, untraced.failure, b.String())
	}
	traced := &pass{log: &b, values: map[string]float64{}, tr: newTracer(obs.NewRegistry())}
	traced.setP99("short_p99", 999, 1)
	if _, ok := traced.values["short_p99"]; ok || len(traced.failure) != 1 {
		t.Errorf("traced, 999 samples: recorded %v, failures %q; want no value and one failure", traced.values, traced.failure)
	}
	traced.setP99("long_p99", 1000, 2)
	if traced.values["long_p99"] != 2 || len(traced.failure) != 1 {
		t.Errorf("traced, 1000 samples: recorded %v, failures %q; want the value and no new failure", traced.values, traced.failure)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {0, 1}} {
		if got := percentile(append([]float64(nil), s...), tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	orig := []float64{3, 1, 2}
	if median(orig) != 2 || orig[0] != 3 {
		t.Errorf("median must not reorder its input: %v", orig)
	}
}

func TestLatencyLineNamesTailAndCount(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	got := latencyLine("lookup_ms", s, "ms")
	if want := "lookup_ms: p50 500 ms, p99 990 ms (n=1000)"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	got = latencyLine("lag", s[:5], "ms")
	if !strings.Contains(got, "too few samples") || !strings.Contains(got, "n=5") {
		t.Errorf("short sample: %q", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "world.build_s", "a", "9lives", "serve.handler_us_p99", "x-y.z_1", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("%q should be a valid name", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validName(s.Name) || !validUnit(s.Unit) {
			t.Errorf("catalogue entry %q (%q) breaks the charset", s.Name, s.Unit)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestUnitPrinting(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		unit string
		want string
	}{
		{1.25, "s", "1.25 s"},
		{0.1234567, "ratio", "0.123457 ratio"},
		{48213.7, "1/s", "48213.7 1/s"},
		{1234567, "count", "1.23457e+06 count"},
		{0, "MiB", "0 MiB"},
	} {
		if got := formatValue(tc.v, tc.unit); got != tc.want {
			t.Errorf("formatValue(%v, %q) = %q, want %q", tc.v, tc.unit, got, tc.want)
		}
	}
	var b bytes.Buffer
	textMetric(&b, "setup_s", 0.5, "s")
	if got := b.String(); got != "metric setup_s = 0.5 s\n" {
		t.Errorf("textMetric = %q", got)
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "MiB", "us", "B", "ratio", "%"} {
		if !validUnit(ok) {
			t.Errorf("unit %q should be valid", ok)
		}
	}
	for _, bad := range []string{"", "µs", "per second", strings.Repeat("x", 17)} {
		if validUnit(bad) {
			t.Errorf("unit %q should be rejected", bad)
		}
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{Num: 5, Den: 20, NumLabel: "failed", DenomLabel: "queries"}
	if got, want := r.String(), "0.25 ratio (failed 5 / queries 20)"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	empty := ratio{NumLabel: "hits", DenomLabel: "lookups"}
	if got, want := empty.String(), "0 ratio (hits 0 / lookups 0)"; got != want {
		t.Errorf("empty base: got %q, want %q", got, want)
	}
	var b bytes.Buffer
	p := &pass{log: &b, values: map[string]float64{}}
	p.setRatio("query_fail_ratio", r)
	if p.values["query_fail_ratio"] != 0.25 || !strings.Contains(b.String(), "(failed 5 / queries 20)") {
		t.Errorf("setRatio recorded %v and printed %q", p.values, b.String())
	}
}

func TestBuildResult(t *testing.T) {
	specs := []metricSpec{{"setup_s", "s"}, {"lookup_ms_p50", "ms"}}
	if _, err := buildResult(specs, map[string]float64{"setup_s": 1}, true); err == nil {
		t.Error("a missing required metric must be an error")
	}
	got, err := buildResult(specs, map[string]float64{"setup_s": 1}, false)
	if err != nil || got["lookup_ms_p50"] != (metricValue{0, "ms"}) || got["setup_s"] != (metricValue{1, "s"}) {
		t.Errorf("optional metrics: %v, %v", got, err)
	}
	if _, err := buildResult(specs, map[string]float64{"setup_s": math.NaN(), "lookup_ms_p50": 1}, true); err == nil {
		t.Error("NaN must be rejected")
	}
	var b bytes.Buffer
	if err := writeResult(&b, resultLine{Correct: true, Attempted: 3, Metrics: got}); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, b.String())
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has extra keys: %s", b.String())
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ms := time.Millisecond
	ivs := []interval{{0, 10 * ms}, {5 * ms, 15 * ms}, {20 * ms, 30 * ms}, {22 * ms, 25 * ms}}
	if got := unionLen(ivs); got != 25*ms {
		t.Errorf("unionLen = %v, want 25ms", got)
	}
	if unionLen(nil) != 0 {
		t.Error("empty union")
	}
}

// TestSelfTime checks the traced table's attribution: a round holding a
// day holding two overlapping collect spans leaves the uncovered rest
// of the round unattributed.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "round", Layer: "experiment", Start: 0, End: 100 * ms},
		{Name: "day", Layer: "experiment", Start: 1 * ms, End: 99 * ms},
		{Name: "collect", Layer: "collect", Start: 10 * ms, End: 50 * ms},
		{Name: "collect", Layer: "collect", Start: 40 * ms, End: 60 * ms},
		{Name: "warmup", Layer: "experiment", Start: 0, End: 300 * ms},
	}}
	tr.link()
	rows := map[string]layerRow{}
	for _, r := range tr.layers() {
		rows[r.Layer] = r
	}
	if r := rows["collect"]; r.Busy != 50*ms || r.Self != 50*ms || r.Spans != 2 {
		t.Errorf("collect row %+v", r)
	}
	if r := rows["experiment"]; r.Busy != 100*ms || r.Self != 50*ms || r.Spans != 2 {
		t.Errorf("experiment row %+v", r)
	}
	total, unattributed := tr.roundCoverage()
	if total != 100*ms || unattributed != 50*ms {
		t.Errorf("round coverage %v/%v, want 50ms/100ms", unattributed, total)
	}
	for _, s := range tr.spans {
		if s.Name == "collect" && tr.spans[s.Parent-1].Name != "day" {
			t.Errorf("collect span parented to %q", tr.spans[s.Parent-1].Name)
		}
	}
}

// TestLoadgenCountsRefusalsAsFailures runs the open-loop generator
// against a server that refuses history lookups with 429: each refusal
// must count as a failed lookup recorded at the client timeout, and the
// run must fail its gate.
func TestLoadgenCountsRefusalsAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/history"):
			w.WriteHeader(http.StatusTooManyRequests)
		case strings.Contains(r.URL.Path, "unknown-"):
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 500, 2, []string{"k"}, []dnsmsg.Name{"a.com", "b.org"}, 7)
	g.Start()
	time.Sleep(200 * time.Millisecond)
	g.Stop()

	var refused, served int
	for _, rs := range g.results {
		for _, l := range rs {
			if l.ok {
				served++
				continue
			}
			refused++
			if l.latency != lookupTimeout {
				t.Errorf("refused lookup recorded at %v, want the %v timeout", l.latency, lookupTimeout)
			}
		}
	}
	if refused == 0 || served == 0 {
		t.Fatalf("want both refused and served lookups, got %d and %d", refused, served)
	}
	var b bytes.Buffer
	p := &pass{log: &b, values: map[string]float64{}}
	g.summary(p)
	if len(p.failure) == 0 || p.failed != int64(refused) || p.attempted != int64(refused+served) {
		t.Errorf("summary: failures %v, failed %d/%d attempted", p.failure, p.failed, p.attempted)
	}
	if want := fmt.Sprintf("(unexpected status or transport error %d / lookups %d)", refused, refused+served); !strings.Contains(b.String(), want) {
		t.Errorf("summary does not print the error ratio with its base %q:\n%s", want, b.String())
	}
	var slow, lookups int
	format := fmt.Sprintf("(failed or over %v %%d / lookups %%d)", lookupLimit)
	text := b.String()
	_, err := fmt.Sscanf(text[max(0, strings.Index(text, "(failed or over")):], format, &slow, &lookups)
	if err != nil || slow < refused || lookups != refused+served {
		t.Errorf("over-limit ratio counts %d of %d lookups (%v); want every one of the %d refusals:\n%s", slow, lookups, err, refused, b.String())
	}
	// A fifth of a second at 500/s is too few lookups for a p99.
	if _, ok := p.values["lookup_ms_p99"]; ok || !strings.Contains(text, "lookup_ms_p99: ") {
		t.Errorf("p99 of %d lookups was reported (%v):\n%s", refused+served, p.values["lookup_ms_p99"], text)
	}
}
