package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/match"
	"rrdps/internal/core/report"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/world"
)

// dynamicsPaper is the §IV campaign at the paper's hazard rates, without
// durability: collection through the resolver, the simulated network
// and the DNS servers dominates a day, and world build dominates set-up.
// Its 50k sites make the world and the resolver cache dwarf the CPU
// caches and give the GC real work.
var dynamicsPaper = workload{
	spec:        "dynamics-paper",
	fixedRounds: 8,
	setupReps:   3,
	setup: func(p *pass) (campaign, error) {
		c := &dynamicsRun{p: p}
		p.call("world.new", func() { c.w = world.New(p.scn.World) })
		p.set("experiment.new_engine_ms", p.call("new_engine", func() {
			c.en = experiment.Dynamics{World: c.w, Workers: runtime.NumCPU(), Policy: &p.scn.Policy,
				Obs: p.reg}.NewEngine()
		}))
		return c, nil
	},
}

// dynamicsRun drives a DynamicsEngine.
type dynamicsRun struct {
	p  *pass
	w  *world.World
	en *experiment.DynamicsEngine
}

func (c *dynamicsRun) population() int { return len(c.w.Sites()) }

func (c *dynamicsRun) round() int { return len(c.en.AppendDay()) }

func (c *dynamicsRun) between(int) {}

func (c *dynamicsRun) prefix() string {
	res := c.en.Result()
	checkGroundTruth(c.p, c.w, res, c.en.NextDay())
	return dynamicsReport(res)
}

// dynamicsReport is the campaign's deterministic report: every §IV
// artifact, without the resolver accounting (parallel collection may
// race on a cold cache and issue duplicate queries; values are equal).
func dynamicsReport(res experiment.DynamicsResult) string {
	return strings.Join([]string{res.String(), report.Figure2(res), report.Figure3(res),
		report.Figure5(res), report.Figure6(res), report.TableV(res)}, "\n")
}

func (c *dynamicsRun) finish() {
	res := c.en.Result()
	c.p.queryStats(res.Stats)
	c.p.netStats(c.w)
}

func (c *dynamicsRun) close() { c.en.Close() }

// checkGroundTruth compares the detections per kind with the world's
// ground-truth event log, within the ±2 tolerance the experiment
// package's TestDynamicsDetectsGroundTruth allows. After n collected
// days, the events of days 0..n-2 are visible to the snapshots.
//
// Events of customers served from a provider's third-party edge are left
// out of the truth: their A records point outside the provider's ranges,
// so the pipeline classifies them NONE or as shared-IP suspects and
// drops them by design (the paper's footnote 6). Their number grows with
// the population and the days, so a fixed tolerance needs them removed.
func checkGroundTruth(p *pass, w *world.World, res experiment.DynamicsResult, days int) {
	m := match.New(w.Registry, dps.Profiles())
	thirdPartyEdge := func(key dps.ProviderKey, apex dnsmsg.Name) bool {
		prov, ok := w.Provider(key)
		if !ok {
			return false
		}
		c, ok := prov.Customer(apex)
		if !ok {
			return false
		}
		_, inRange := m.MatchAnyA([]netip.Addr{c.EdgeAddr})
		return !inRange
	}
	truth := map[behavior.Kind]int{}
	eliminated := 0
	for _, e := range w.Events() {
		k, ok := behaviorKinds[e.Kind]
		if !ok || e.Day > days-2 {
			continue
		}
		if thirdPartyEdge(e.From, e.Apex) || thirdPartyEdge(e.To, e.Apex) {
			eliminated++
			continue
		}
		truth[k]++
	}
	detected := map[behavior.Kind]int{}
	for _, d := range res.Detections {
		detected[d.Kind]++
	}
	var parts []string
	for _, k := range behavior.AllKinds() {
		parts = append(parts, fmt.Sprintf("%s %d/%d", k, detected[k], truth[k]))
		if d := detected[k] - truth[k]; d < -2 || d > 2 {
			p.fail("%s: detected %d, ground truth %d", k, detected[k], truth[k])
		}
	}
	fmt.Fprintf(p.log, "gate: detections/ground truth over %d days: %s (%d events on third-party edges left out)\n",
		days, strings.Join(parts, ", "), eliminated)
}

var behaviorKinds = map[world.BehaviorKind]behavior.Kind{
	world.BehaviorJoin:   behavior.Join,
	world.BehaviorLeave:  behavior.Leave,
	world.BehaviorPause:  behavior.Pause,
	world.BehaviorResume: behavior.Resume,
	world.BehaviorSwitch: behavior.Switch,
}
