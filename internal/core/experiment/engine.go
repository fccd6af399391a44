package experiment

import (
	"fmt"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// The incremental engines.
//
// Run() computes a campaign in one batch shot; the engines expose the
// same campaign as a process: construct one, call AppendDay/AppendRound
// once per collection round, read Result whenever a consistent answer is
// needed, Checkpoint before a planned shutdown, Close when done. Run is
// itself implemented as "NewEngine + loop + Result", so the batch and
// incremental paths cannot drift — they are the same code, which is what
// the append≡batch equivalence suite (incremental_test.go) pins.
//
// The engines are what the -follow daemon mode in cmd/dpsmeasure and
// cmd/rrscan is built on: the campaign horizon (Days / Weeks) bounds
// Run, but an engine keeps appending past it for as long as the caller
// keeps calling — the simulated Internet keeps running, each sealed
// round lands in the WAL (and periodically a checkpoint), and a
// `rrserve -follow` reader picks it up within one poll.
//
// Both engines embed one core, campaign, which owns everything a
// collection round does regardless of kind: the collection wiring, the
// live snapstore, durability (recovery, the WAL, checkpoints) and the
// seal-and-publish step. An engine adds its per-round analysis, its
// cursor export and restore, and its result.

// campaign is the engine core: the world and its collection wiring, the
// live snapshot store, the durability handle, and the steps every round
// shares — collect into the store and the WAL, seal and publish,
// checkpoint, close.
type campaign struct {
	w         *world.World
	resolver  *dnsresolver.Resolver
	domains   []alexa.Domain
	collector *collect.Collector
	obs       *obs.Registry
	onSeal    func(*snapstore.View, []byte)

	store *snapstore.Store
	p     *campaignPersist // nil without a checkpoint directory
	// baseStats is the resolver accounting inherited from the cursor a
	// resumed campaign restarted from (zero on a fresh campaign).
	baseStats dnsresolver.QueryStats
	// lastFooter is the most recent sealed round's cursor blob; Checkpoint
	// reuses it so a forced checkpoint is byte-identical to the WAL footer
	// of the round it covers.
	lastFooter []byte
	closed     bool
}

// newCampaign wires the collection side of a campaign: a resolver at the
// vantage carrying the retry policy (nil means the default), the domains
// keep admits (all of them when nil), a collector over them fanned out
// to workers, and the observer.
func newCampaign(w *world.World, vantage netsim.Region, keep func(alexa.Domain) bool, workers int, policy *dnsresolver.Policy, reg *obs.Registry) campaign {
	c := campaign{w: w, resolver: w.NewResolver(vantage), obs: reg}
	c.domains = make([]alexa.Domain, 0, len(w.Sites()))
	for _, s := range w.Sites() {
		if dom := s.Domain(); keep == nil || keep(dom) {
			c.domains = append(c.domains, dom)
		}
	}
	c.collector = collect.New(c.resolver, c.domains)
	if workers > 1 {
		c.collector.SetWorkers(workers)
	}
	c.resolver.SetPolicy(policyOrDefault(policy))
	if reg != nil {
		c.collector.SetObserver(reg)
		reg.Gauge("campaign.domains").Set(int64(len(c.domains)))
	}
	return c
}

// policyOrDefault resolves a campaign's Policy override.
func policyOrDefault(p *dnsresolver.Policy) dnsresolver.Policy {
	if p == nil {
		return dnsresolver.DefaultPolicy()
	}
	return *p
}

// open creates the live store with the given retention and, with a
// checkpoint directory, opens it. On resume it recovers the newest
// checkpoint plus the sealed WAL rounds after it into the store and
// returns the cursor blob the engine restores from; nil means a fresh
// start. Call startWAL once the engine has restored.
func (c *campaign) open(window int, dir string, every int, resume bool) []byte {
	c.store = snapstore.New()
	c.store.SetWindow(window)
	if dir == "" {
		return nil
	}
	p, err := openCampaignPersist(dir, every, resume)
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	c.p = p
	if !resume {
		return nil
	}
	rec, err := p.recoverState(window)
	if err != nil {
		panic(fmt.Sprintf("experiment: recover: %v", err))
	}
	if !rec.ok {
		return nil
	}
	c.store = rec.store
	return rec.blob
}

// restore adopts the process state every cursor carries beyond the
// engine's own: the inherited accounting, resolver health, metrics, the
// world clock (a fresh world replays forward to it) and the fabric's
// counters.
func (c *campaign) restore(base dnsresolver.QueryStats, health dnsresolver.HealthState, metrics obs.Snapshot, worldDay int, net netsim.CountersState) {
	c.baseStats = base
	c.resolver.Health().RestoreState(health)
	c.obs.Restore(metrics)
	advanceWorldTo(c.w, worldDay)
	if err := c.w.Net.RestoreCounters(net); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}

// startWAL ends the durable prologue. After a resume (footer non-nil,
// the restored engine's cursor) it re-establishes the invariant — state
// = checkpoint + WAL — with a fresh checkpoint, written before openWAL
// truncates the WAL so a crash in between cannot discard the sealed
// rounds it held. Then it opens the WAL for appending.
func (c *campaign) startWAL(footer []byte) {
	if c.p == nil {
		return
	}
	if footer != nil {
		if err := c.p.checkpointNow(c.w.Day(), c.store, footer); err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
	}
	if err := c.p.openWAL(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}

// collectRound streams one collection round, labelled day, into the
// store — teed into the WAL when durable — and seals it.
func (c *campaign) collectRound(day int) {
	dw := c.store.BeginDay(day)
	put := dw.Put
	if c.p != nil {
		c.p.beginDay(day)
		put = c.p.tee(dw.Put)
	}
	c.collector.CollectStream(day, put)
	dw.Seal()
}

// publishing reports whether sealed rounds go anywhere — the WAL or an
// OnSeal consumer. Engines encode a round's cursor only when it does.
func (c *campaign) publishing() bool { return c.p != nil || c.onSeal != nil }

// seal closes the round's WAL group with the cursor footer, writes a
// cadence checkpoint when due, and publishes the round to OnSeal.
func (c *campaign) seal(footer []byte) {
	c.lastFooter = footer
	if c.p != nil {
		if err := c.p.sealRound(c.w.Day(), c.store, footer); err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
	}
	if c.onSeal != nil {
		c.onSeal(c.store.SealedView(), footer)
	}
}

// WorldDay returns the world clock. For Dynamics it can run ahead of
// NextDay under long-interval jitter.
func (c *campaign) WorldDay() int { return c.w.Day() }

// Checkpoint forces a full checkpoint (store + cursor) and truncates the
// WAL, exactly like the batch run's campaign-end checkpoint — a follower
// or a later resume needs nothing but the directory. It reuses the last
// sealed round's footer, so the checkpoint is byte-identical to what
// that round's cadence checkpoint would have carried. A no-op without a
// CheckpointDir, or before the first round sealed by this process: a
// resumed-and-already-complete campaign must not rewrite its final
// checkpoint with a recomputed one.
func (c *campaign) Checkpoint() {
	if c.p == nil || c.lastFooter == nil {
		return
	}
	if err := c.p.checkpointNow(c.w.Day(), c.store, c.lastFooter); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	if err := c.p.wal.Reset(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}

// Close releases the engine's WAL handle. It does not checkpoint — call
// Checkpoint first for a clean shutdown; skipping it models a crash
// (the sealed WAL groups still resume exactly).
func (c *campaign) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.p != nil {
		c.p.close()
	}
}
