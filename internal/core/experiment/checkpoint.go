package experiment

import (
	"encoding/json"
	"fmt"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
)

// Campaign durability (see internal/snapdisk for the on-disk formats).
//
// A checkpointing campaign writes two things: a WAL day group per
// collection round (the round's records plus a footer holding the
// campaign cursor as of that round's end), and a full checkpoint —
// store state plus the same cursor — every CheckpointEvery world days.
// The invariant is that the durable state always equals
//
//	last full checkpoint + the sealed WAL day groups after it,
//
// so resume is: load the newest valid checkpoint, replay the sealed WAL
// groups on top, adopt the last footer's cursor, rebuild the world to
// the cursor's day (the world is derived from config + seed, so
// advancing a fresh world is exact replay), and continue the loop. A
// crash mid-round leaves an unsealed WAL tail; replay drops it and the
// round is re-collected live, which is value-identical because the
// world is quiescent within a round and the resolver cache is purged at
// every pass start.
//
// The cursor carries cumulative QueryStats with SidelineEvents zeroed:
// sideline events live in the health trackers, whose restored event
// counters flow back in through the fresh clients' Stats() — adding the
// base and the post-resume stats then reproduces the uninterrupted
// run's totals exactly.

// defaultCheckpointEvery is the full-checkpoint cadence, in world days,
// when CheckpointEvery is left zero.
const defaultCheckpointEvery = 7

// campaignPersist bundles a campaign's checkpoint directory and WAL.
type campaignPersist struct {
	dir   *snapdisk.Dir
	wal   *snapdisk.WAL
	every int
	// lastCkpt is the world day of the newest full checkpoint, -1 when
	// none exists yet.
	lastCkpt int
}

func openCampaignPersist(dirPath string, every int, resume bool) (*campaignPersist, error) {
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	dir, err := snapdisk.OpenDir(dirPath)
	if err != nil {
		return nil, err
	}
	if !resume {
		// A fresh campaign owns the directory; stale state from an
		// earlier run must not leak into this one's recovery.
		if err := dir.Clear(); err != nil {
			return nil, err
		}
	}
	return &campaignPersist{dir: dir, every: every, lastCkpt: -1}, nil
}

// recovered is what resume found on disk.
type recovered struct {
	store *snapstore.Store
	blob  []byte // campaign cursor: the checkpoint's, or the last sealed WAL footer's
	ok    bool
}

// recoverState loads checkpoint + sealed WAL days. window is the
// campaign's retention bound, applied when recovery starts from an
// empty store (a crash before the first full checkpoint).
func (p *campaignPersist) recoverState(window int) (recovered, error) {
	st, blob, _, ok, err := p.dir.LatestCheckpoint()
	if err != nil {
		return recovered{}, err
	}
	var store *snapstore.Store
	if ok {
		if blob == nil {
			return recovered{}, fmt.Errorf("experiment: checkpoint carries no campaign state")
		}
		store, err = snapstore.FromState(st)
		if err != nil {
			return recovered{}, err
		}
		store.SetWindow(window)
	} else {
		store = snapstore.New()
		store.SetWindow(window)
	}
	days, _, err := snapdisk.ReplayWAL(p.dir.WALPath())
	if err != nil {
		return recovered{}, err
	}
	for _, wd := range days {
		if last, has := store.LatestDay(); has && wd.Day <= last {
			continue // already folded into the checkpoint
		}
		dw := store.BeginDay(wd.Day)
		for _, rec := range wd.Records {
			dw.Put(rec)
		}
		dw.Seal()
		blob = wd.Footer
		ok = true
	}
	return recovered{store: store, blob: blob, ok: ok}, nil
}

// openWAL opens the campaign WAL for appending. Call after recovery and
// after the post-recovery checkpointNow (or after Clear): appending to a
// torn tail would bury sealed groups behind garbage, so the WAL is
// truncated first — and truncating before the recovered state has been
// re-checkpointed would durably discard the sealed groups it replayed.
func (p *campaignPersist) openWAL() error {
	if err := p.truncateWAL(); err != nil {
		return err
	}
	wal, err := snapdisk.OpenWAL(p.dir.WALPath())
	if err != nil {
		return err
	}
	p.wal = wal
	return nil
}

func (p *campaignPersist) truncateWAL() error {
	w, err := snapdisk.OpenWAL(p.dir.WALPath())
	if err != nil {
		return err
	}
	if err := w.Reset(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// sealRound seals the round's WAL group with the cursor footer, then
// writes a full checkpoint (and truncates the WAL) when the cadence is
// due.
func (p *campaignPersist) sealRound(worldDay int, store *snapstore.Store, footer []byte) error {
	if err := p.wal.SealDay(footer); err != nil {
		return err
	}
	if p.lastCkpt >= 0 && worldDay-p.lastCkpt < p.every {
		return nil
	}
	if err := p.dir.WriteCheckpoint(worldDay, store.ExportState(), footer); err != nil {
		return err
	}
	p.lastCkpt = worldDay
	return p.wal.Reset()
}

// checkpointNow writes a full checkpoint outside the seal path — the
// fresh post-recovery checkpoint that re-establishes the invariant
// before the campaign continues. It runs BEFORE openWAL truncates the
// WAL: the replayed sealed groups must be durable in the new checkpoint
// before the only other copy of them is discarded (a crash in between
// just resumes from the new checkpoint, skipping the stale WAL groups).
func (p *campaignPersist) checkpointNow(worldDay int, store *snapstore.Store, footer []byte) error {
	if err := p.dir.WriteCheckpoint(worldDay, store.ExportState(), footer); err != nil {
		return err
	}
	p.lastCkpt = worldDay
	return nil
}

func (p *campaignPersist) close() {
	if p.wal != nil {
		p.wal.Close()
	}
}

// tee returns a Put that feeds both the store's DayWriter and the WAL.
func (p *campaignPersist) tee(put func(collect.Record)) func(collect.Record) {
	return func(rec collect.Record) {
		put(rec)
		if err := p.wal.Put(rec); err != nil {
			panic(fmt.Sprintf("experiment: wal put: %v", err))
		}
	}
}

func (p *campaignPersist) beginDay(day int) {
	if err := p.wal.BeginDay(day); err != nil {
		panic(fmt.Sprintf("experiment: wal begin day %d: %v", day, err))
	}
}

// dynamicsCursor is the Dynamics campaign state a footer/checkpoint
// carries beyond the store: where the loop is, everything the result
// has accumulated, and the process state (FSM, caches, health,
// accounting) the next round's behaviour depends on.
type dynamicsCursor struct {
	Kind     string `json:"kind"`
	NextDay  int    `json:"next_day"`
	WorldDay int    `json:"world_day"`
	// RandDraws counts long-interval jitter draws so far; resume burns
	// as many from a fresh identically-seeded Rand.
	RandDraws   int                               `json:"rand_draws"`
	HaveTracker bool                              `json:"have_tracker"`
	Tracker     behavior.TrackerState             `json:"tracker"`
	Adoptions   map[dnsmsg.Name]status.Adoption   `json:"adoptions"`
	Breakdowns  []AdoptionBreakdown               `json:"breakdowns"`
	Unchanged   map[dps.ProviderKey]*UnchangedRow `json:"unchanged"`
	BaseStats   dnsresolver.QueryStats            `json:"base_stats"`
	Health      dnsresolver.HealthState           `json:"health"`
	Obs         obs.Snapshot                      `json:"obs"`
	// Net carries the fabric's per-endpoint accounting (Fig. 7); the
	// checkpointed rounds' queries never recur on resume, so the
	// counters must travel with the cursor.
	Net netsim.CountersState `json:"net"`
	// Scenario is the provenance of the scenario spec that configured
	// the campaign, nil for flag-driven runs.
	Scenario *ScenarioInfo `json:"scenario,omitempty"`
}

// residualCursor is the Residual campaign's counterpart.
type residualCursor struct {
	Kind            string                  `json:"kind"`
	WarmupRemaining int                     `json:"warmup_remaining"`
	NextWeek        int                     `json:"next_week"`
	WorldDay        int                     `json:"world_day"`
	NameserverCount int                     `json:"nameserver_count"`
	NSHostsByWeek   map[int][]dnsmsg.Name   `json:"ns_hosts_by_week,omitempty"`
	Cloudflare      []WeeklyReport          `json:"cloudflare"`
	Incapsula       []WeeklyReport          `json:"incapsula"`
	CFExposure      []exposure.WeekState    `json:"cf_exposure"`
	IncExposure     []exposure.WeekState    `json:"inc_exposure"`
	CNAMELib        []rrscan.CNAMETargets   `json:"cname_lib"`
	Scanner         rrscan.ScannerState     `json:"scanner"`
	Health          dnsresolver.HealthState `json:"health"`
	BaseStats       dnsresolver.QueryStats  `json:"base_stats"`
	Obs             obs.Snapshot            `json:"obs"`
	Net             netsim.CountersState    `json:"net"`
	Scenario        *ScenarioInfo           `json:"scenario,omitempty"`
}

const (
	cursorKindDynamics = "dynamics"
	cursorKindResidual = "residual"
)

func encodeCursor(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiment: encode cursor: %v", err))
	}
	return b
}

func decodeDynamicsCursor(b []byte) (dynamicsCursor, error) {
	var cur dynamicsCursor
	if err := json.Unmarshal(b, &cur); err != nil {
		return cur, fmt.Errorf("experiment: decode dynamics cursor: %w", err)
	}
	if cur.Kind != cursorKindDynamics {
		return cur, fmt.Errorf("experiment: cursor kind %q, want %q", cur.Kind, cursorKindDynamics)
	}
	return cur, nil
}

func decodeResidualCursor(b []byte) (residualCursor, error) {
	var cur residualCursor
	if err := json.Unmarshal(b, &cur); err != nil {
		return cur, fmt.Errorf("experiment: decode residual cursor: %w", err)
	}
	if cur.Kind != cursorKindResidual {
		return cur, fmt.Errorf("experiment: cursor kind %q, want %q", cur.Kind, cursorKindResidual)
	}
	return cur, nil
}

// cursor captures the Dynamics campaign state after a completed day.
// BaseStats folds the accounting inherited from the cursor this process
// resumed from into the fresh resolver's, keeping it cumulative across
// any number of crash/resume cycles.
func (en *DynamicsEngine) cursor() dynamicsCursor {
	base := en.baseStats.Add(en.resolver.Stats())
	base.SidelineEvents = 0 // carried by the restored health tracker
	cur := dynamicsCursor{
		Kind:       cursorKindDynamics,
		NextDay:    en.nextDay,
		WorldDay:   en.w.Day(),
		RandDraws:  en.randDraws,
		Adoptions:  en.adoptions,
		Breakdowns: en.res.Breakdowns,
		Unchanged:  en.res.Unchanged,
		BaseStats:  base,
		Health:     en.resolver.Health().ExportState(),
		Obs:        en.obs.Snapshot(),
		Net:        en.w.Net.ExportCounters(),
		Scenario:   en.cfg.Scenario,
	}
	if en.tracker != nil {
		cur.HaveTracker = true
		cur.Tracker = en.tracker.ExportState()
	}
	return cur
}

// cursor captures the Residual campaign state after a completed round:
// the warm-up still owed, the next week to run (Weeks+1 when the
// campaign is done), and cumulative accounting as for Dynamics.
func (en *ResidualEngine) cursor() residualCursor {
	base := en.baseStats.Add(en.resolver.Stats().Add(en.scanner.Stats()))
	base.SidelineEvents = 0 // carried by the restored health trackers
	return residualCursor{
		Kind:            cursorKindResidual,
		WarmupRemaining: en.warmupRemaining,
		NextWeek:        en.nextWeek,
		WorldDay:        en.w.Day(),
		NameserverCount: en.res.NameserverCount,
		NSHostsByWeek:   en.res.NSHostsByWeek,
		Cloudflare:      en.res.Cloudflare,
		Incapsula:       en.res.Incapsula,
		CFExposure:      en.res.CFExposure.ExportState(),
		IncExposure:     en.res.IncExposure.ExportState(),
		CNAMELib:        en.cnameLib.ExportState(),
		Scanner:         en.scanner.ExportState(),
		Health:          en.resolver.Health().ExportState(),
		BaseStats:       base,
		Obs:             en.obs.Snapshot(),
		Net:             en.w.Net.ExportCounters(),
		Scenario:        en.cfg.Scenario,
	}
}

// advanceWorldTo replays a fresh world forward to the cursor's day. The
// world is a pure function of its config and seed, so this reproduces
// the interrupted run's world state exactly.
func advanceWorldTo(w interface {
	Day() int
	AdvanceDays(int)
}, worldDay int) {
	if worldDay < w.Day() {
		panic(fmt.Sprintf("experiment: resume world day %d behind current day %d — resume needs a fresh world built from the same config", worldDay, w.Day()))
	}
	w.AdvanceDays(worldDay - w.Day())
}
