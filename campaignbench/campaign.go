package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/world"
)

// pass is one measured campaign inside a run: set-up, then rounds until
// the budget is spent. A traced pass carries an obs registry and a
// tracer; an untraced one carries neither, so the program runs exactly
// as it does without observability installed.
type pass struct {
	seed    int64
	dir     string // scratch directory this pass may write in
	dirs    int    // subdirectories of dir handed out so far
	reg     *obs.Registry
	tr      *tracer
	log     io.Writer
	values  map[string]float64
	failure []string
	// attempted counts the pass's operations (domain-rounds collected,
	// lookups sent); failed counts those that failed.
	attempted, failed int64
	// scn is the workload's compiled scenario with the pass's seed: the
	// set-up builds from it, and the traced run's twin world too.
	scn *scenario.Compiled
}

func (p *pass) traced() bool { return p.tr != nil }

func (p *pass) set(name string, v float64) { p.values[name] = v }

// setRatio records a ratio metric and prints it with its base.
func (p *pass) setRatio(name string, r ratio) {
	p.values[name] = r.Value()
	fmt.Fprintf(p.log, "metric %s = %s\n", name, r)
}

// setP99 records a p99 metric of n samples, unless n is too small to
// carry one under the tail rule: reported as p99, the maximum of a few
// hundred samples would pass for a tail it is not. A traced pass, which
// must report the metric, then fails; an untraced one says so.
func (p *pass) setP99(name string, n int, v float64) {
	switch {
	case p99Supported(n):
		p.set(name, v)
	case p.traced():
		p.fail("%s: %d samples are too few for a p99 (ten must lie beyond it); raise --seconds", name, n)
	default:
		fmt.Fprintf(p.log, "metric %s: %d samples are too few for a p99\n", name, n)
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failure = append(p.failure, fmt.Sprintf(format, args...))
}

// campaign is one workload's campaign under test, as its set-up built it.
type campaign interface {
	// population is the number of domains a round collects.
	population() int
	// round appends one collection round (the timed call) and returns
	// the behaviour detections it produced.
	round() int
	// between runs after each round, outside the round's timing.
	between(round int)
	// prefix runs once, right after the workload's fixed rounds: it
	// checks what must hold of that deterministic prefix and returns the
	// campaign report the digest hashes.
	prefix() string
	// finish checks the campaign's outputs and records its metrics.
	finish()
	// close releases the campaign's resources.
	close()
}

// workload is one named benchmark input.
type workload struct {
	// spec names the workload's rrdps/v1 scenario under scenarios/.
	spec string
	// fixedRounds is the deterministic prefix every pass runs whatever
	// its budget: the campaign digest and the prefix checks cover
	// exactly these rounds, so they depend on the seed alone.
	fixedRounds int
	// setupReps is how often an untraced run repeats set-up.
	setupReps int
	// setup builds the world and engine for p from p.scn; it is timed as
	// set-up.
	setup func(p *pass) (campaign, error)
}

//go:embed scenarios/*.json
var scenarioFiles embed.FS

// loadScenario parses and compiles a workload's scenario, with seed in
// place of the spec's. The spec's horizon (days, weeks) does not apply:
// a pass appends rounds until its budget is spent.
func loadScenario(spec string, seed int64) (*scenario.Compiled, error) {
	file := "scenarios/" + spec + ".json"
	data, err := scenarioFiles.ReadFile(file)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(file, data)
	if err != nil {
		return nil, err
	}
	scn := scenario.Compile(s)
	scn.World.Seed = seed
	return scn, nil
}

// runPass sets the campaign up (reps times, keeping the last one), then
// appends rounds until budget is spent. It records the end-to-end
// metrics and returns the digest taken after the fixed rounds.
func runPass(p *pass, wl workload, reps int, budget time.Duration) (string, error) {
	var err error
	if p.scn, err = loadScenario(wl.spec, p.seed); err != nil {
		return "", err
	}
	var setups []float64
	var c campaign
	for i := 0; i < reps; i++ {
		if c != nil {
			c.close()
			c = nil
			runtime.GC() // each set-up starts from the same heap
		}
		start := time.Now()
		if c, err = wl.setup(p); err != nil {
			return "", err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	p.set("setup_s", median(setups))

	var walls []float64
	var wallSum time.Duration
	var used probeDelta // summed over the timed calls only
	detections, digest := 0, ""
	// Start every pass's rounds right after a collection, so the GC
	// cycles that fall inside the measured rounds do not depend on how
	// much garbage set-up left behind.
	runtime.GC()
	loopStart := time.Now()
	for n := 0; n < wl.fixedRounds || time.Since(loopStart) < budget; n++ {
		end := p.tr.begin("round")
		before := readProbe()
		detections += c.round()
		after := readProbe()
		end()
		p.tr.drain()
		used.add(before, after)
		wall := after.at.Sub(before.at)
		wallSum += wall
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		c.between(n)
		if n+1 == wl.fixedRounds {
			sum := sha256.Sum256([]byte(c.prefix()))
			digest = hex.EncodeToString(sum[:])
		}
	}
	loopWall := time.Since(loopStart)

	rounds := len(walls)
	domainRounds := float64(c.population() * rounds)
	p.set("domain_rounds_per_s", domainRounds/wallSum.Seconds())
	p.set("cpu_us_per_domain_round", float64(used.cpu)/float64(time.Microsecond)/domainRounds)
	p.set("allocs_per_domain_round", float64(used.mallocs)/domainRounds)
	p.set("runtime.alloc_bytes_per_domain_round", float64(used.allocBytes)/domainRounds)
	p.set("experiment.round_ms_p50", median(walls))
	p.set("behavior.detections_per_round", float64(detections)/float64(rounds))
	p.setRatio("runtime.gc_cpu_share", ratio{
		Num: uint64(used.gcCPU * 1e6), Den: uint64(used.busyCPU * 1e6),
		NumLabel: "gc cpu-us", DenomLabel: "busy cpu-us",
	})
	p.attempted += int64(domainRounds)
	fmt.Fprintf(p.log, "pass: %d rounds x %d domains in %.3f s of rounds (%.3f s loop), digest after round %d %s\n",
		rounds, c.population(), wallSum.Seconds(), loopWall.Seconds(), wl.fixedRounds, digest)
	fmt.Fprintln(p.log, latencyLine("round_ms", walls, "ms"))
	fmt.Fprintln(p.log, latencyLine("setup_s", setups, "s"))
	c.finish()
	if p.traced() {
		p.layerMetrics()
	}
	return digest, nil
}

// queryStats records the resolver accounting of a campaign result: the
// failure ratio with its base, and the retry-path counts.
func (p *pass) queryStats(st dnsresolver.QueryStats) {
	p.setRatio("query_fail_ratio", ratio{Num: st.Failed, Den: st.Queries, NumLabel: "failed", DenomLabel: "queries"})
	p.set("dnsresolver.retries", float64(st.Retries))
	p.set("dnsresolver.timeouts", float64(st.Timeouts))
	p.set("dnsresolver.hedges", float64(st.Hedges))
	p.set("dnsresolver.failed", float64(st.Failed))
}

// netStats records the fabric's datagram accounting.
func (p *pass) netStats(w *world.World) {
	sends, drops := w.Net.Stats()
	p.set("netsim.sends", float64(sends))
	p.setRatio("netsim.drop_ratio", ratio{Num: drops, Den: sends, NumLabel: "drops", DenomLabel: "sends"})
}

// layerMetrics derives the per-layer metrics that come from the obs
// registry's counters and from the traced spans.
func (p *pass) layerMetrics() {
	snap := p.reg.Snapshot()
	c := snap.Counters
	domains := c["collect.domains"]
	collectBusy := p.tr.busy("collect")
	p.set("collect.busy_s", collectBusy.Seconds())
	if domains > 0 {
		p.set("collect.us_per_record", float64(collectBusy.Microseconds())/float64(domains))
	}
	p.set("collect.resolve_fail", float64(domains-c["collect.resolve_ok"]))
	p.setRatio("dnsresolver.queries_per_record", ratio{Num: c["dns.queries"], Den: domains, NumLabel: "queries", DenomLabel: "records"})
	p.setRatio("dnsresolver.attempts_per_query", ratio{Num: c["dns.attempts"], Den: c["dns.queries"], NumLabel: "attempts", DenomLabel: "queries"})
	p.setRatio("dnsresolver.cache_hit_ratio", ratio{Num: c["dns.cache.hit"], Den: c["dns.cache.hit"] + c["dns.cache.miss"], NumLabel: "hits", DenomLabel: "lookups"})

	p.set("rrscan.scan_busy_s", p.tr.busy("scan").Seconds())
	p.set("rrscan.cname_busy_s", p.tr.busy("cname").Seconds())
	p.setRatio("rrscan.answer_ratio", ratio{Num: c["scan.answered"], Den: c["scan.queries"], NumLabel: "answered", DenomLabel: "queries"})
	p.set("filter.busy_s", p.tr.busy("filter").Seconds())
	p.setRatio("filter.hidden_ratio", ratio{Num: c["filter.hidden"], Den: c["filter.scanned"], NumLabel: "hidden", DenomLabel: "scanned"})
	p.setRatio("filter.verified_ratio", ratio{Num: c["filter.verified"], Den: c["filter.hidden"], NumLabel: "verified", DenomLabel: "hidden"})
	p.set("htmlverify.busy_s", p.tr.busy("verify").Seconds())
	p.setRatio("htmlverify.match_ratio", ratio{Num: c["verify.matches"], Den: c["verify.comparisons"], NumLabel: "matches", DenomLabel: "comparisons"})

	total, unattributed := p.tr.roundCoverage()
	p.setRatio("experiment.unattributed_share", ratio{
		Num: uint64(unattributed.Microseconds()), Den: uint64(total.Microseconds()),
		NumLabel: "unattributed us", DenomLabel: "round us",
	})
}

// call runs fn as a benchmark span named name and returns its wall time
// in milliseconds.
func (p *pass) call(name string, fn func()) float64 {
	end := p.tr.begin(name)
	ms := timed(fn)
	end()
	return ms
}

// timed returns how long fn takes, in milliseconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// replayAdvance builds a twin of cfg's world and times its first days of
// AdvanceDay — the days the campaign's world went through, in the same
// order. It records the world layer's build cost too.
func (p *pass) replayAdvance(cfg world.Config, days int) {
	var twin *world.World
	var buildMS float64
	live, mallocs := heapDelta(func() {
		buildMS = timed(func() { twin = world.New(cfg) })
	})
	p.set("world.build_s", buildMS/1000)
	p.set("world.heap_bytes_per_site", float64(live)/float64(cfg.NumSites))
	p.set("world.allocs_per_site", float64(mallocs)/float64(cfg.NumSites))
	var perDay []float64
	for i := 0; i < days; i++ {
		perDay = append(perDay, timed(func() { twin.AdvanceDay() }))
	}
	p.set("world.advance_ms_per_day", median(perDay))
	fmt.Fprintf(p.log, "twin world: build %.3f s, %d B and %d objects per site, %s\n",
		buildMS/1000, live/int64(cfg.NumSites), mallocs/uint64(cfg.NumSites), latencyLine("advance", perDay, "ms"))
}
