package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// BENCHMARK.json lists the same names (TestCatalogueMatchesBenchmarkJSON).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"domain_rounds_per_s", "1/s"},
	{"cpu_us_per_domain_round", "us"},
	{"allocs_per_domain_round", "count"},
	{"peak_heap_live_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// does not run (rrscan on dynamics-paper, serve on residual-weekly)
// reports 0; the text table says which layers were measured.
var perLayer = []metricSpec{
	{"world.build_s", "s"},
	{"world.heap_bytes_per_site", "B"},
	{"world.allocs_per_site", "count"},
	{"world.advance_ms_per_day", "ms"},

	{"experiment.round_ms_p50", "ms"},
	{"experiment.new_engine_ms", "ms"},
	{"experiment.unattributed_share", "ratio"},

	{"collect.busy_s", "s"},
	{"collect.us_per_record", "us"},
	{"collect.resolve_fail", "count"},

	{"dnsresolver.queries_per_record", "count"},
	{"dnsresolver.attempts_per_query", "count"},
	{"dnsresolver.cache_hit_ratio", "ratio"},
	{"dnsresolver.retries", "count"},
	{"dnsresolver.timeouts", "count"},
	{"dnsresolver.hedges", "count"},
	{"dnsresolver.failed", "count"},
	{"query_fail_ratio", "ratio"},

	{"netsim.sends", "count"},
	{"netsim.drop_ratio", "ratio"},

	{"rrscan.scan_busy_s", "s"},
	{"rrscan.answer_ratio", "ratio"},
	{"rrscan.cname_busy_s", "s"},

	{"filter.busy_s", "s"},
	{"filter.hidden_ratio", "ratio"},
	{"filter.verified_ratio", "ratio"},

	{"htmlverify.busy_s", "s"},
	{"htmlverify.match_ratio", "ratio"},

	{"status.classify_us_per_record", "us"},
	{"status.classifications_per_round", "count"},

	{"snapstore.changed_pairs_per_round", "count"},
	{"snapstore.diff_ms_per_round", "ms"},
	{"snapstore.versions", "count"},
	{"snapstore.interned_names", "count"},

	{"behavior.detections_per_round", "count"},

	{"snapdisk.wal_bytes_per_round", "B"},
	{"snapdisk.checkpoint_bytes", "B"},
	{"snapdisk.checkpoint_decode_ms", "ms"},
	{"snapdisk.wal_replay_ms", "ms"},
	{"snapdisk.checkpoint_encode_ms", "ms"},
	{"snapdisk.final_checkpoint_ms", "ms"},

	{"serve.refresh_ms_p50", "ms"},
	{"serve.state_decode_ms", "ms"},
	{"serve.store_fold_ms", "ms"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"follow_lag_ms_p50", "ms"},
	{"lookup_ms_p50", "ms"},
	{"lookup_ms_p99", "ms"},
	{"lookup_error_ratio", "ratio"},
	{"loadgen.late_ms_p99", "ms"},

	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_domain_round", "B"},

	{"trace.overhead_ratio", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether name fits the metric-name charset: a letter
// or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(name string) bool { return nameRE.MatchString(name) }

// validUnit reports whether unit fits the unit charset.
func validUnit(unit string) bool { return unitRE.MatchString(unit) }

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult picks the catalogue's metrics out of values. An end-to-end
// metric missing from values is an error (every workload measures all of
// them); a per-layer metric missing means the workload does not run
// that layer and reports 0.
func buildResult(specs []metricSpec, values map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		if !validName(s.Name) || !validUnit(s.Unit) {
			return nil, fmt.Errorf("metric %q has an invalid name or unit %q", s.Name, s.Unit)
		}
		v, ok := values[s.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// writeResult prints the result line.
func writeResult(w io.Writer, r resultLine) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// formatValue prints a value with its unit, the way every text line of
// the benchmark does: "12.5 ms", "0.031 ratio", "1.2e+04 1/s".
func formatValue(v float64, unit string) string {
	return strconv.FormatFloat(v, 'g', 6, 64) + " " + unit
}

// ratio is a share with the two counts it comes from.
type ratio struct {
	Num, Den   uint64
	NumLabel   string
	DenomLabel string
}

// Value returns Num/Den, or 0 for an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// String prints the ratio with its base: "0.25 ratio (failed 5 / queries 20)".
func (r ratio) String() string {
	return fmt.Sprintf("%s (%s %d / %s %d)", formatValue(r.Value(), "ratio"), r.NumLabel, r.Num, r.DenomLabel, r.Den)
}

// tailPercentiles are the percentiles a tail is reported at, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest of tailPercentiles that has at
// least ten of n samples beyond it, and false when even the median has
// fewer than ten beyond it.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		beyond := float64(n) * (100 - p) / 100
		if beyond >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// p99Supported reports whether n samples carry a p99 under the tail
// rule, that is, whether at least ten of them lie beyond it.
func p99Supported(n int) bool {
	tail, ok := tailPercentile(n)
	return ok && tail >= 99
}

// percentile returns the nearest-rank p-th percentile of samples, which
// it sorts in place. An empty sample answers 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is percentile 50 on a copy, leaving samples untouched.
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 50)
}

// latencyLine describes a latency sample: its median, the highest
// percentile with ten samples beyond it, and the sample count.
func latencyLine(name string, samples []float64, unit string) string {
	s := append([]float64(nil), samples...)
	p50 := percentile(s, 50)
	tail, ok := tailPercentile(len(s))
	if !ok || tail == 50 {
		return fmt.Sprintf("%s: p50 %s, too few samples for a tail (n=%d)", name, formatValue(p50, unit), len(s))
	}
	return fmt.Sprintf("%s: p50 %s, p%s %s (n=%d)", name, formatValue(p50, unit),
		strconv.FormatFloat(tail, 'f', -1, 64), formatValue(percentile(s, tail), unit), len(s))
}

// textMetric prints one metric line: "metric name = value unit".
func textMetric(w io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(w, "metric %s = %s\n", name, formatValue(v, unit))
}
