package main

import (
	"fmt"
	"runtime"
	"strings"

	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/world"
)

// residualWeekly is the §V campaign at rrscan's defaults: each round
// advances the world a week under heavy churn, then runs the direct scan,
// the Fig. 8 filter and HTML verification, off the resolver fast path.
// Its 20k sites give every scan week dozens of hidden records and
// thousands of timeouts.
var residualWeekly = workload{
	spec:        "residual-weekly",
	fixedRounds: 6, // the four weeks of the 28-day warm-up, then two scan weeks
	setupReps:   5,
	setup: func(p *pass) (campaign, error) {
		c := &residualRun{p: p}
		p.call("world.new", func() { c.w = world.New(p.scn.World) })
		p.set("experiment.new_engine_ms", p.call("new_engine", func() {
			c.en = experiment.Residual{World: c.w, WarmupDays: p.scn.WarmupDays,
				IncapsulaStartWeek: p.scn.IncapsulaStartWeek, Workers: runtime.NumCPU(),
				Policy: &p.scn.Policy, Obs: p.reg}.NewEngine()
		}))
		return c, nil
	},
}

// residualRun drives a ResidualEngine.
type residualRun struct {
	p  *pass
	w  *world.World
	en *experiment.ResidualEngine
}

func (c *residualRun) population() int { return len(c.w.Sites()) }

func (c *residualRun) round() int {
	c.en.AppendRound()
	return 0
}

func (c *residualRun) between(int) {}

func (c *residualRun) prefix() string {
	res := c.en.Result()
	return strings.Join([]string{res.String(), fmt.Sprintf("nameservers %d", res.NameserverCount),
		report.TableVI(res), report.Figure9(res)}, "\n")
}

func (c *residualRun) finish() {
	res := c.en.Result()
	c.p.queryStats(res.Stats)
	c.p.netStats(c.w)
	checkHiddenTruth(c.p, c.w, res)
}

func (c *residualRun) close() { c.en.Close() }

// checkHiddenTruth requires every hidden Cloudflare apex to have left
// Cloudflare in the world's ground truth (a LEAVE or a SWITCH away from
// it), or to be a terminated Cloudflare customer: a hidden record is a
// record only the DPS still serves, so any other apex is a false one.
func checkHiddenTruth(p *pass, w *world.World, res experiment.ResidualResult) {
	left := map[dnsmsg.Name]bool{}
	for _, e := range w.Events() {
		if e.From == dps.Cloudflare && (e.Kind == world.BehaviorLeave || e.Kind == world.BehaviorSwitch) {
			left[e.Apex] = true
		}
	}
	cf, _ := w.Provider(dps.Cloudflare)
	hidden := map[dnsmsg.Name]bool{}
	for _, wr := range res.Cloudflare {
		for _, apex := range wr.Report.HiddenApexes() {
			hidden[apex] = true
		}
	}
	explained := 0
	for apex := range hidden {
		cust, ok := cf.Customer(apex)
		if left[apex] || (ok && cust.State == dps.StateTerminated) {
			explained++
			continue
		}
		p.fail("hidden Cloudflare apex %s never left Cloudflare", apex)
	}
	fmt.Fprintf(p.log, "gate: %d/%d hidden Cloudflare apexes left Cloudflare in the ground truth (%d weeks)\n",
		explained, len(hidden), len(res.Cloudflare))
	if len(hidden) == 0 {
		p.fail("no hidden Cloudflare apex found: the gate checks nothing")
	}
}
