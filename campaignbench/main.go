// Command campaignbench measures whole campaigns end to end: world
// build, the daily or weekly collection rounds of an incremental engine,
// and, on follow-serve, a follower and a lookup server beside them. It
// drives the program only through its public package functions.
//
//	campaignbench --workload dynamics-paper --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced
// run (--trace 1) runs the campaign twice on the same seed, untraced and
// traced, for half the time each; it checks both produce the same
// campaign digest and prints the per-layer metrics, the per-layer table
// and the tracing overhead. The last line of standard output is a JSON
// object: {"correct", "attempted", "failed", "metrics"}. A run whose
// outputs fail a correctness gate prints "correct": false and exits 1.
// See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"rrdps/internal/obs"
)

var workloads = map[string]workload{
	"dynamics-paper":  dynamicsPaper,
	"residual-weekly": residualWeekly,
	"follow-serve":    followServe,
}

// replayDays is how many days of AdvanceDay the traced run replays on a
// twin of the campaign's world.
const replayDays = 28

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the world and the lookup stream derive from it")
	seconds := fs.Float64("seconds", 10, "seconds of collection rounds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "campaignbench", "runs"), "directory for checkpoints and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "campaignbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-pid%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s (seed %d, %v, trace %d, GOMAXPROCS %d)\n",
		*name, *seed, budget, *trace, runtime.GOMAXPROCS(0))
	var res resultLine
	var failures []string
	var err error
	if *trace == 0 {
		res, failures, err = untraced(wl, *seed, dir, budget, stdout)
	} else {
		trPath := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		res, failures, err = traced(wl, *seed, dir, trPath, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "gate failed: %s\n", f)
	}
	res.Correct = len(failures) == 0
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// untraced runs one pass with set-up repeated wl.setupReps times and
// reports the end-to-end metrics.
func untraced(wl workload, seed int64, dir string, budget time.Duration, log io.Writer) (resultLine, []string, error) {
	heap := startHeapSampler()
	p := &pass{seed: seed, dir: dir, log: log, values: map[string]float64{}}
	_, err := runPass(p, wl, wl.setupReps, budget)
	peakHeap := heap.Stop()
	if err != nil {
		return resultLine{}, nil, err
	}
	p.set("peak_heap_live_mb", peakHeap)
	p.set("peak_rss_mb", peakRSSMiB())
	return finishResult(p, endToEnd, true, nil)
}

// traced runs the campaign untraced and then traced on the same seed,
// each for half the budget, and reports the per-layer metrics.
func traced(wl workload, seed int64, dir, trPath string, budget time.Duration, log io.Writer) (resultLine, []string, error) {
	fmt.Fprintln(log, "untraced pass:")
	u := &pass{seed: seed, dir: dir, log: log, values: map[string]float64{}}
	plainDigest, err := runPass(u, wl, 1, budget/2)
	if err != nil {
		return resultLine{}, nil, err
	}
	// Hand the first pass's heap back to the OS, so the second pass
	// grows its heap from the same start and the overhead ratio does not
	// credit it with a warm heap.
	debug.FreeOSMemory()

	fmt.Fprintln(log, "traced pass:")
	reg := obs.NewRegistry()
	p := &pass{seed: seed, dir: dir, log: log, values: map[string]float64{}, reg: reg, tr: newTracer(reg)}
	tracedDigest, err := runPass(p, wl, 1, budget/2)
	if err != nil {
		return resultLine{}, nil, err
	}
	if plainDigest != tracedDigest {
		p.fail("tracing changed the campaign digest: %s untraced, %s traced", plainDigest, tracedDigest)
	}
	p.setRatio("trace.overhead_ratio", ratio{
		Num: uint64(p.values["domain_rounds_per_s"]), Den: uint64(u.values["domain_rounds_per_s"]),
		NumLabel: "traced domain-rounds/s", DenomLabel: "untraced domain-rounds/s",
	})
	runtime.GC()
	p.replayAdvance(p.scn.World, replayDays)

	p.tr.link()
	p.tr.writeTable(log)
	if err := p.tr.writeFile(trPath); err != nil {
		return resultLine{}, nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", trPath)
	p.attempted += u.attempted
	p.failed += u.failed
	return finishResult(p, perLayer, false, u.failure)
}

// finishResult prints the catalogue's metrics and assembles the result
// line.
func finishResult(p *pass, specs []metricSpec, required bool, earlier []string) (resultLine, []string, error) {
	metrics, err := buildResult(specs, p.values, required)
	if err != nil {
		return resultLine{}, nil, err
	}
	for _, s := range specs {
		textMetric(p.log, s.Name, metrics[s.Name].Value, s.Unit)
	}
	return resultLine{Attempted: max(p.attempted, 1), Failed: p.failed, Metrics: metrics},
		append(earlier, p.failure...), nil
}
