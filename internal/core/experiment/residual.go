package experiment

import (
	"fmt"
	"net/netip"
	"sort"

	"rrdps/internal/alexa"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/filter"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// WeeklyReport is one week's filtering result for one provider.
type WeeklyReport struct {
	Week   int
	Report filter.Report
}

// ResidualResult carries the §V campaign outputs: the per-week Table VI
// rows and Fig. 9 exposure timelines for both case studies.
type ResidualResult struct {
	// Weeks is the number of weekly scans performed.
	Weeks int
	// Cloudflare / Incapsula hold per-week reports.
	Cloudflare []WeeklyReport
	Incapsula  []WeeklyReport
	// CFExposure / IncExposure are the week-over-week trackers.
	CFExposure  *exposure.Tracker
	IncExposure *exposure.Tracker
	// NameserverCount is how many Cloudflare NS-rerouting nameservers the
	// scan discovered (the paper's 391) — the largest single week's count.
	NameserverCount int
	// NSHostsByWeek records each scan week's discovered NS-rerouting
	// hosts, sorted. NameserverCount derives from it (max weekly set
	// size). The per-week sets exist so shard merges stay exact:
	// discovery accumulates per record, so the union of the shards'
	// weekly sets equals the whole population's weekly set, and the max
	// must be taken after that union — merging the per-shard maxima
	// alone would undercount.
	NSHostsByWeek map[int][]dnsmsg.Name
	// Stats aggregates the campaign's resilience accounting: the shared
	// collector/filter resolver (counted once) plus every scan vantage
	// client.
	Stats dnsresolver.QueryStats
	// Sidelined lists the nameservers still sidelined by health tracking
	// when the campaign ended, across the resolver and vantage clients.
	Sidelined []netip.Addr
}

// Residual runs the §V residual-resolution campaign over a world:
// daily world advancement with periodic collection, plus weekly direct
// scans of Cloudflare's nameservers (6 weeks in the paper) and weekly
// re-resolution of Incapsula CNAMEs (3 weeks in the paper, here aligned to
// the same weekly cadence).
type Residual struct {
	World *world.World
	// Weeks is the number of weekly scan rounds.
	Weeks int
	// IncapsulaStartWeek is the first week (1-based) the Incapsula
	// re-resolution runs, delaying that case study (the paper's Incapsula
	// study covers the last three weeks). Zero or one starts at week 1.
	IncapsulaStartWeek int
	// Keep, when non-nil, restricts the campaign to the domains it
	// accepts. The shard-parallel driver (internal/shardrun) partitions
	// the apex population by giving each shard's campaign its membership
	// predicate; an unsharded campaign leaves it nil.
	Keep func(alexa.Domain) bool
	// WarmupDays advances the world before the first scan so the
	// population carries history (terminated customers, stale records),
	// as the real Internet does. Snapshots are still collected weekly
	// during warm-up so the CNAME library sees pre-scan customers.
	WarmupDays int
	// ProviderAudit enables the §VI-B.1 provider-side countermeasure:
	// every week Cloudflare and Incapsula audit their terminated
	// customers against public resolution and purge mismatches.
	ProviderAudit bool
	// Workers sets the parallelism of every measurement loop in the
	// campaign — collection, the direct scan, the CNAME re-resolution, and
	// the filter pipeline. Zero or one means serial. Results are
	// value-identical to a serial run: the world only advances between
	// measurement passes, and each pass fans out with deterministic
	// per-index assignment and ordered fan-in.
	Workers int
	// Policy overrides the retry policy installed on the campaign's
	// resolver and scan vantage clients. Nil means
	// dnsresolver.DefaultPolicy(): 3 attempts with backoff, hedging, and
	// nameserver health sidelining. Point it at a NoRetryPolicy value to
	// measure the unprotected baseline.
	Policy *dnsresolver.Policy
	// Obs, when non-nil, receives the campaign's metrics and phase spans:
	// stage counters from every component, dns.* resilience counters from
	// the shared resolver and each vantage client, and per-week spans.
	Obs *obs.Registry
	// SnapWindow bounds the snapshot store's retention, in days (really:
	// in collection rounds — the campaign collects once per warm-up step
	// and once per week). Zero keeps the default of 1: only the current
	// round's snapshot is ever read, so nothing older needs to stay
	// replayable. Negative retains every round.
	SnapWindow int
	// CheckpointDir, when non-empty, makes the campaign durable: every
	// collection round is teed into a write-ahead log in the directory,
	// and a full checkpoint (store + campaign cursor) is written every
	// CheckpointEvery world days — see internal/snapdisk. Incompatible
	// with ProviderAudit (the audit mutates provider state through
	// queries that a rebuilt world cannot replay).
	CheckpointDir string
	// CheckpointEvery is the full-checkpoint cadence in world days.
	// Zero means 7 (one checkpoint per weekly round).
	CheckpointEvery int
	// Resume continues the campaign recorded in CheckpointDir instead of
	// starting over. The caller must supply a *fresh* World built from
	// the same config and seed as the interrupted run, and the same
	// campaign configuration; the resumed result is value-identical to
	// an uninterrupted run. With no state in CheckpointDir the campaign
	// simply starts from the beginning.
	Resume bool

	// Attack, when non-nil, runs a reflection flood against the scanned
	// provider's nameservers alongside each weekly scan — see AttackLoad.
	// Pair with world.Config.NSRateLimit to make the flood and the
	// scanner compete for the nameservers' response budget.
	Attack *AttackLoad

	// Scenario, when non-nil, records which declarative scenario spec
	// produced this campaign; it rides along into every checkpoint and
	// WAL footer so rrserve can answer "what scenario produced this
	// epoch". It does not influence the computation.
	Scenario *ScenarioInfo

	// StopAfterRounds, when positive, stops the campaign after that many
	// collection rounds (warm-up rounds count) and returns the partial
	// result — the test hook that simulates a kill at a round boundary.
	// Exported so the shard-parallel driver's crash/resume suite
	// (internal/shardrun) can kill one shard's campaign while its
	// siblings run to completion.
	StopAfterRounds int

	// OnSeal, when non-nil, runs after every sealed collection round with
	// an immutable view of the store's sealed rounds and the round's
	// campaign-cursor blob — the same blob a checkpoint would carry, so a
	// live consumer (the lookup service) sees exactly what a
	// checkpoint-loaded one would. The hook runs on the campaign
	// goroutine between Seal and the next BeginDay; the view and blob
	// stay valid after it returns.
	OnSeal func(*snapstore.View, []byte)
}

// Run executes the campaign; the world's clock advances WarmupDays +
// Weeks*7 days. Each collection round streams into a delta-encoded
// snapstore.Store and a single cursor pass feeds every snapshot consumer
// (the Incapsula CNAME library and the week's nameserver discovery).
//
// Run is the incremental engine driven to the configured horizon:
// NewEngine absorbs the persistence/recovery setup, each loop turn
// appends exactly one collection round (warm-up step or scan week), and
// a final forced checkpoint seals the campaign. Batch and daemon callers
// therefore share every line of per-round logic.
func (r Residual) Run() ResidualResult {
	if r.World == nil || r.Weeks <= 0 {
		panic("experiment: Residual requires World and positive Weeks")
	}
	en := r.NewEngine()
	defer en.Close()
	for en.warmupRemaining > 0 || en.nextWeek <= r.Weeks {
		// The final scan week checkpoints regardless of StopAfterRounds.
		final := en.warmupRemaining == 0 && en.nextWeek == r.Weeks
		en.AppendRound()
		if r.StopAfterRounds > 0 && en.rounds >= r.StopAfterRounds && !final {
			return en.res // simulated kill; the partial result is not meaningful
		}
	}
	en.Checkpoint()
	return en.Result()
}

// ResidualEngine is the §V residual-resolution campaign as an
// incremental process: each AppendRound is one collection round — a
// warm-up round while any warm-up days remain, then one weekly scan
// round (direct scan + filter + exposure fold) per call. Construct with
// Residual.NewEngine.
type ResidualEngine struct {
	campaign
	cfg       Residual
	pipeline  *filter.Pipeline
	scanner   *rrscan.Scanner
	cnameLib  *rrscan.CNAMELibrary
	cfProfile dps.Profile
	attack    *attackEnv // reflection-flood infra, nil without AttackLoad

	res             ResidualResult
	warmupRemaining int
	nextWeek        int
	rounds          int // rounds appended by this process
	warmupSpan      *obs.Span
}

// NewEngine builds the campaign's incremental engine; see
// Dynamics.NewEngine for the contract. Weeks may be zero — a daemon
// caller appends rounds for as long as it wants.
func (r Residual) NewEngine() *ResidualEngine {
	if r.World == nil {
		panic("experiment: Residual engine requires World")
	}
	if r.Weeks < 0 {
		panic("experiment: Residual.Weeks must not be negative")
	}
	if r.CheckpointDir != "" && r.ProviderAudit {
		panic("experiment: checkpointing is incompatible with ProviderAudit (audits mutate provider state a rebuilt world cannot replay)")
	}
	w := r.World
	en := &ResidualEngine{
		campaign: newCampaign(w, netsim.RegionOregon, r.Keep, r.Workers, r.Policy, r.Obs),
		cfg:      r,
		res: ResidualResult{
			Weeks:       r.Weeks,
			CFExposure:  exposure.NewTracker(),
			IncExposure: exposure.NewTracker(),
		},
		warmupRemaining: r.WarmupDays,
		nextWeek:        1,
	}
	en.onSeal = r.OnSeal
	matcher := match.New(w.Registry, dps.Profiles())
	en.pipeline = filter.New(matcher, en.resolver, htmlverify.New(w.NewHTTPClient(netsim.RegionOregon)))
	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	en.scanner = rrscan.NewScanner(vantage)
	en.scanner.SetPolicy(policyOrDefault(r.Policy))
	en.cnameLib = rrscan.NewCNAMELibrary(dps.Incapsula, matcher)
	if r.Workers > 1 {
		en.scanner.SetWorkers(r.Workers)
		en.cnameLib.SetWorkers(r.Workers)
		en.pipeline.SetWorkers(r.Workers)
	}
	if r.Obs != nil {
		en.scanner.SetObserver(r.Obs)
		en.cnameLib.SetObserver(r.Obs)
		en.pipeline.SetObserver(r.Obs)
		r.Obs.Gauge("campaign.weeks").Set(int64(r.Weeks))
	}
	en.cfProfile, _ = dps.ProfileFor(dps.Cloudflare)
	en.setupAttack()

	var resumed []byte
	if blob := en.open(r.window(), r.CheckpointDir, r.CheckpointEvery, r.Resume); blob != nil {
		cur, err := decodeResidualCursor(blob)
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
		en.restoreCursor(cur)
		resumed = encodeCursor(en.cursor())
	}
	en.startWAL(resumed)
	if en.warmupRemaining > 0 {
		en.warmupSpan = r.Obs.Tracer().StartSpan("warmup", fmt.Sprintf("%d days", en.warmupRemaining))
	}
	return en
}

// restoreCursor adopts a recovered cursor: the loop position, the
// accumulated artifacts, the CNAME library and scanner state, and the
// process state the next round depends on.
func (en *ResidualEngine) restoreCursor(cur residualCursor) {
	en.warmupRemaining = cur.WarmupRemaining
	en.nextWeek = cur.NextWeek
	en.res.NameserverCount = cur.NameserverCount
	en.res.NSHostsByWeek = cur.NSHostsByWeek
	en.res.Cloudflare = cur.Cloudflare
	en.res.Incapsula = cur.Incapsula
	en.res.CFExposure = exposure.RestoreTracker(cur.CFExposure)
	en.res.IncExposure = exposure.RestoreTracker(cur.IncExposure)
	en.cnameLib.RestoreState(cur.CNAMELib)
	if err := en.scanner.RestoreState(cur.Scanner); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	en.restore(cur.BaseStats, cur.Health, cur.Obs, cur.WorldDay, cur.Net)
}

// InWarmup reports whether the next AppendRound is a warm-up round.
func (en *ResidualEngine) InWarmup() bool { return en.warmupRemaining > 0 }

// NextWeek returns the next scan week (Weeks+1 once the configured
// horizon is done; it keeps counting past it under -follow).
func (en *ResidualEngine) NextWeek() int { return en.nextWeek }

// Rounds returns how many rounds this process has appended.
func (en *ResidualEngine) Rounds() int { return en.rounds }

// AppendRound runs one collection round and folds it into every artifact
// in place. During warm-up it collects and feeds the Incapsula CNAME
// library, then advances the world up to seven days; afterwards each
// call is one full scan week — provider audit, collection, nameserver
// discovery, the Cloudflare direct scan and Incapsula re-resolution
// through the Fig. 8 filter, and the week's exposure fold — followed by
// a week of world time.
func (en *ResidualEngine) AppendRound() {
	if en.closed {
		panic("experiment: AppendRound on a closed engine")
	}
	if en.warmupRemaining > 0 {
		day := en.w.Day()
		en.collectRound(day)
		for cur := en.store.Cursor(day); cur.Next(); {
			en.cnameLib.AddRecord(cur.Apex(), cur.Record())
		}
		en.warmupSpan.AddItems(len(en.domains))
		step := min(en.warmupRemaining, 7)
		en.w.AdvanceDays(step)
		en.warmupRemaining -= step
		en.sealRound()
		if en.warmupRemaining == 0 {
			en.warmupSpan.End()
			en.warmupSpan = nil
		}
		return
	}

	week := en.nextWeek
	weekSpan := en.obs.Tracer().StartSpan("week", fmt.Sprintf("week %d", week))
	weekSpan.SetItems(len(en.domains))
	en.audit()
	// Collect at the start of the week; one cursor pass feeds both
	// snapshot consumers — the Incapsula CNAME library and the week's
	// fresh nameserver discovery.
	day := en.w.Day()
	en.collectRound(day)
	disc := rrscan.NewNameserverDiscovery(en.cfProfile)
	for cur := en.store.Cursor(day); cur.Next(); {
		rec := cur.Record()
		en.cnameLib.AddRecord(cur.Apex(), rec)
		disc.AddRecord(rec)
	}
	nsHosts, nsAddrs := disc.Resolve(en.resolver)
	en.res.addWeekHosts(week, nsHosts)

	// The reflection flood (if configured) loads the fleet the scan is
	// about to hammer: collection and discovery above see a clean fabric,
	// so only the direct scan's recall is exposed to the attack.
	en.floodWeek(week, nsAddrs)
	en.scanWeek(week, nsAddrs)

	// A week of usage dynamics between scans.
	en.w.AdvanceDays(7)
	en.nextWeek = week + 1
	en.sealRound()
	weekSpan.End()
}

// sealRound counts the round and, when it is published, seals it with
// the current cursor.
func (en *ResidualEngine) sealRound() {
	en.rounds++
	if en.publishing() {
		en.seal(encodeCursor(en.cursor()))
	}
}

// audit runs the §VI-B.1 provider-side countermeasure when enabled.
func (en *ResidualEngine) audit() {
	if !en.cfg.ProviderAudit {
		return
	}
	en.resolver.PurgeCache()
	auditLookup := func(name dnsmsg.Name) []netip.Addr {
		res, err := en.resolver.Resolve(name, dnsmsg.TypeA)
		if err != nil {
			return nil
		}
		return res.Addrs()
	}
	for _, key := range []dps.ProviderKey{dps.Cloudflare, dps.Incapsula} {
		if p, ok := en.w.Provider(key); ok {
			p.AuditTerminated(auditLookup)
		}
	}
}

// scanWeek runs the measurement half of one weekly round: the Cloudflare
// direct scan + filter, and the Incapsula CNAME-library re-resolution +
// filter.
func (en *ResidualEngine) scanWeek(week int, nsAddrs []netip.Addr) {
	res := &en.res
	// Cloudflare case study: direct scan of all domains.
	scanned := en.scanner.ScanDirect(nsAddrs, en.domains)
	en.resolver.PurgeCache()
	cfReport := en.pipeline.Run(dps.Cloudflare, scanned)
	res.Cloudflare = append(res.Cloudflare, WeeklyReport{Week: week, Report: cfReport})
	res.CFExposure.AddWeek(week, cfReport)

	// Incapsula case study: re-resolve the CNAME library starting at
	// IncapsulaStartWeek itself. (This was `week >` for a while, which
	// silently skipped the named start week — with the paper's
	// "last three weeks of six" config that dropped a third of the
	// Incapsula observations.)
	if week >= en.cfg.IncapsulaStartWeek {
		incScanned := en.cnameLib.ResolveAll(en.resolver)
		incReport := en.pipeline.Run(dps.Incapsula, incScanned)
		res.Incapsula = append(res.Incapsula, WeeklyReport{Week: week, Report: incReport})
		res.IncExposure.AddWeek(week, incReport)
	}
}

// Result assembles the campaign result over everything appended so far;
// Weeks is the number of completed scan weeks. See
// DynamicsEngine.Result for the sharing caveat.
//
// The collector, filter pipeline, CNAME library, and nameserver
// discovery all share one resolver, so its accounting counts once, plus
// each scan vantage client's, on top of what a resumed campaign
// inherited.
func (en *ResidualEngine) Result() ResidualResult {
	out := en.res
	out.Weeks = en.nextWeek - 1
	out.Stats = en.baseStats.Add(en.resolver.Stats().Add(en.scanner.Stats()))
	out.Sidelined = mergeSidelined(en.resolver.Health().Sidelined(), en.scanner.Sidelined())
	return out
}

// window resolves SnapWindow.
func (r Residual) window() int {
	switch {
	case r.SnapWindow < 0:
		return 0 // unbounded: keep every collection round replayable
	case r.SnapWindow < 1:
		return 1 // minimum: only the current round is ever read
	default:
		return r.SnapWindow
	}
}

// mergeSidelined unions sorted sideline lists, keeping the result sorted
// and duplicate-free.
func mergeSidelined(lists ...[]netip.Addr) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, list := range lists {
		for _, addr := range list {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// addWeekHosts records one week's discovered NS-rerouting hosts and
// folds the week into NameserverCount. hosts arrive sorted from the
// discovery's Resolve.
func (r *ResidualResult) addWeekHosts(week int, hosts []dnsmsg.Name) {
	if r.NSHostsByWeek == nil {
		r.NSHostsByWeek = make(map[int][]dnsmsg.Name)
	}
	r.NSHostsByWeek[week] = append([]dnsmsg.Name(nil), hosts...)
	if len(hosts) > r.NameserverCount {
		r.NameserverCount = len(hosts)
	}
}

// TotalHidden returns the distinct hidden-record counts (Table VI totals).
func (r ResidualResult) TotalHidden() (cloudflare, incapsula int) {
	return r.CFExposure.TotalHidden(), r.IncExposure.TotalHidden()
}

// TotalVerified returns the distinct verified-origin counts.
func (r ResidualResult) TotalVerified() (cloudflare, incapsula int) {
	return r.CFExposure.TotalVerified(), r.IncExposure.TotalVerified()
}

// String renders a one-line summary.
func (r ResidualResult) String() string {
	ch, ih := r.TotalHidden()
	cv, iv := r.TotalVerified()
	return fmt.Sprintf("residual: %d weeks, cloudflare %d hidden/%d verified, incapsula %d hidden/%d verified",
		r.Weeks, ch, cv, ih, iv)
}
