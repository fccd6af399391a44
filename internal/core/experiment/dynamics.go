// Package experiment orchestrates the paper's two measurement campaigns
// over a simulated world: the six-week usage-dynamics study (§IV) and the
// residual-resolution-in-the-wild study (§V). The cmd/ binaries and the
// benchmark harness drive these runners to regenerate every table and
// figure.
package experiment

import (
	"fmt"
	"math/rand"
	"net/netip"

	"rrdps/internal/alexa"
	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// AdoptionBreakdown aggregates one day's classification into the Fig. 2
// numbers.
type AdoptionBreakdown struct {
	Day int
	// ByProvider counts adopters (ON or OFF, shared-IP suspects excluded)
	// per provider.
	ByProvider map[dps.ProviderKey]int
	// Total is the number of adopters.
	Total int
	// Population is the number of classified domains.
	Population int
	// TopAdopters / TopPopulation restrict to the top rank bucket (the
	// paper's top-10k equivalent).
	TopAdopters   int
	TopPopulation int
	// CloudflareNS / CloudflareCNAME split Cloudflare adopters by
	// rerouting (Fig. 6).
	CloudflareNS    int
	CloudflareCNAME int
}

// UnchangedRow is one provider's Table V row.
type UnchangedRow struct {
	Provider    dps.ProviderKey
	JoinResume  int
	IPUnchanged int
}

// DynamicsResult carries everything the §IV experiments report.
type DynamicsResult struct {
	Days int
	// Daily adoption breakdowns (Fig. 2 averages over these).
	Breakdowns []AdoptionBreakdown
	// Detections and pause windows from the behaviour tracker.
	Detections   []behavior.Detection
	PauseWindows []behavior.PauseWindow
	CountsByDay  map[int]map[behavior.Kind]int
	// Unchanged is the Table V data, keyed by provider.
	Unchanged map[dps.ProviderKey]*UnchangedRow
	// Stats is the collector resolver's resilience accounting for the
	// whole campaign.
	Stats dnsresolver.QueryStats
	// Sidelined lists the nameservers still sidelined by health tracking
	// when the campaign ended.
	Sidelined []netip.Addr
}

// AvgAdoptionRate returns the mean daily overall adoption rate.
func (r DynamicsResult) AvgAdoptionRate() float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.Population > 0 {
			sum += float64(b.Total) / float64(b.Population)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AvgTopAdoptionRate returns the mean daily adoption rate in the top rank
// bucket.
func (r DynamicsResult) AvgTopAdoptionRate() float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.TopPopulation > 0 {
			sum += float64(b.TopAdopters) / float64(b.TopPopulation)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AdoptionGrowth returns the change in overall adoption rate from the
// first to the last day — the paper observes +1.17% over its six weeks.
func (r DynamicsResult) AdoptionGrowth() float64 {
	if len(r.Breakdowns) < 2 {
		return 0
	}
	first, last := r.Breakdowns[0], r.Breakdowns[len(r.Breakdowns)-1]
	if first.Population == 0 || last.Population == 0 {
		return 0
	}
	return float64(last.Total)/float64(last.Population) - float64(first.Total)/float64(first.Population)
}

// AvgProviderShare returns provider key's mean share of adopters.
func (r DynamicsResult) AvgProviderShare(key dps.ProviderKey) float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.Total > 0 {
			sum += float64(b.ByProvider[key]) / float64(b.Total)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AvgPerDay returns the mean daily count of a behaviour kind.
func (r DynamicsResult) AvgPerDay(kind behavior.Kind) float64 {
	if r.Days <= 1 {
		return 0
	}
	total := 0
	for _, counts := range r.CountsByDay {
		total += counts[kind]
	}
	// Behaviours are detected from day 1 on (day 0 is the baseline).
	return float64(total) / float64(r.Days-1)
}

// TotalUnchangedRate returns Table V's bottom-line unchanged percentage.
func (r DynamicsResult) TotalUnchangedRate() (joinResume, unchanged int, rate float64) {
	for _, row := range r.Unchanged {
		joinResume += row.JoinResume
		unchanged += row.IPUnchanged
	}
	if joinResume > 0 {
		rate = float64(unchanged) / float64(joinResume)
	}
	return joinResume, unchanged, rate
}

// Dynamics runs the §IV usage-dynamics campaign: days daily snapshots with
// classification, behaviour tracking, and the Table V JOIN/RESUME HTML
// verification.
type Dynamics struct {
	World *world.World
	Days  int
	// Vantage is the collector's region. Defaults to Oregon.
	Vantage netsim.Region
	// Excluded lists extra domains to skip.
	Excluded []dnsmsg.Name
	// Keep, when non-nil, restricts the campaign to the domains it
	// accepts. The shard-parallel driver (internal/shardrun) partitions
	// the apex population by giving each shard's campaign its membership
	// predicate; an unsharded campaign leaves it nil and measures
	// everything.
	Keep func(alexa.Domain) bool
	// TopCut overrides the top rank bucket cutoff: domains with Rank <=
	// TopCut count toward the Fig. 2 top-bucket numbers. Zero derives
	// the cutoff from the campaign's own population (population/100,
	// min 1). A sharded campaign must pass the whole population's
	// cutoff, or each shard would bucket against its shard-local
	// population and the merged breakdown would not match an unsharded
	// run.
	TopCut int
	// KeepMultiCDN disables the automatic exclusion of detected multi-CDN
	// front-end customers (see DetectMultiCDNStream). The paper excludes
	// them (§IV-B.3); keep them only to demonstrate the SWITCH noise they
	// add.
	KeepMultiCDN bool
	// LongIntervalProb makes some snapshot gaps two days instead of one,
	// modelling the paper's uneven 20-30h experiment intervals. Longer
	// gaps aggregate more behaviours into one diff — the spike
	// synchronization the paper observes in Fig. 3 — and can compress
	// reversed pairs (a PAUSE and RESUME inside one gap cancel out).
	LongIntervalProb float64
	// Rand drives interval jitter; required when LongIntervalProb > 0.
	Rand *rand.Rand
	// Workers sets the daily collection parallelism. Zero or one means
	// serial; snapshots stay value-identical either way because the world
	// only advances between collection passes.
	Workers int
	// Policy overrides the retry policy installed on the collector's
	// resolver. Nil means dnsresolver.DefaultPolicy(); point it at a
	// NoRetryPolicy value to measure the unprotected baseline.
	Policy *dnsresolver.Policy
	// Obs, when non-nil, receives the campaign's metrics and phase spans:
	// stage counters from the collector and verifier, dns.* resilience
	// counters from the resolver, and per-day spans.
	Obs *obs.Registry
	// SnapWindow bounds the snapshot store's retention, in days. Zero
	// keeps the default of 2 — the current day plus the previous day
	// that DiffPairs and the Table V verification look back to — so
	// retained memory stays flat no matter how long the campaign runs.
	// Values below 2 are raised to 2; negative retains every day (useful
	// when the caller wants to replay the campaign afterwards).
	SnapWindow int
	// CheckpointDir, when non-empty, makes the campaign durable: every
	// day is teed into a write-ahead log in the directory, and a full
	// checkpoint (store + campaign cursor) is written every
	// CheckpointEvery world days — see internal/snapdisk.
	CheckpointDir string
	// CheckpointEvery is the full-checkpoint cadence in world days.
	// Zero means 7.
	CheckpointEvery int
	// Resume continues the campaign recorded in CheckpointDir instead of
	// starting over. The caller must supply a *fresh* World built from
	// the same config and seed as the interrupted run (the world replays
	// deterministically to the checkpointed day), and the same campaign
	// configuration. The resumed result is value-identical to an
	// uninterrupted run. With no state in CheckpointDir the campaign
	// simply starts from the beginning.
	Resume bool

	// Scenario, when non-nil, records which declarative scenario spec
	// produced this campaign; it rides along into every checkpoint and
	// WAL footer so rrserve can answer "what scenario produced this
	// epoch". It does not influence the computation.
	Scenario *ScenarioInfo

	// StopAfterDays, when positive, stops the campaign after that many
	// collected days and returns the partial result — the test hook that
	// simulates a kill at a day boundary. Exported so the shard-parallel
	// driver's crash/resume suite (internal/shardrun) can kill one
	// shard's campaign while its siblings run to completion.
	StopAfterDays int

	// OnSeal, when non-nil, runs after every sealed collection round with
	// an immutable view of the store's sealed days and the round's
	// campaign-cursor blob — the same blob a checkpoint would carry, so a
	// live consumer (the lookup service) sees exactly what a
	// checkpoint-loaded one would. The hook runs on the campaign
	// goroutine between Seal and the next BeginDay; the view and blob
	// stay valid after it returns.
	OnSeal func(*snapstore.View, []byte)
}

// _multiCDNSubstrings identify multi-CDN front-end aliases in CNAME
// chains; the paper names Cedexis as the canonical example.
var _multiCDNSubstrings = []string{"cedexis"}

// DetectMultiCDNStream returns the apexes whose CNAME chains run through
// a multi-CDN front-end in a record stream (a snapstore cursor), one
// record in memory at a time.
func DetectMultiCDNStream(src status.RecordSource) []dnsmsg.Name {
	var out []dnsmsg.Name
	for src.Next() {
		for _, target := range src.Record().CNAMEs {
			for _, sub := range _multiCDNSubstrings {
				if target.ContainsSubstring(sub) {
					out = append(out, src.Apex())
				}
			}
		}
	}
	return out
}

// Run executes the campaign; the world's clock advances Days days (more
// under long-interval jitter). Every day is collected straight into a
// delta-encoded snapstore.Store and consumed through a DiffPairs cursor,
// so retained memory is bounded by SnapWindow instead of growing with
// the campaign.
//
// Run is the incremental engine driven to the configured horizon:
// NewEngine absorbs the persistence/recovery setup, each loop turn
// appends exactly one day, and a final forced checkpoint seals the
// campaign. Batch and daemon callers therefore share every line of
// per-day logic — the append≡batch equivalence suite leans on that.
func (d Dynamics) Run() DynamicsResult {
	if d.World == nil || d.Days <= 0 {
		panic("experiment: Dynamics requires World and positive Days")
	}
	en := d.NewEngine()
	defer en.Close()
	appended := 0
	for en.nextDay < d.Days {
		en.AppendDay()
		appended++
		if d.StopAfterDays > 0 && appended >= d.StopAfterDays && en.nextDay < d.Days {
			return en.res // simulated kill; the partial result is not meaningful
		}
	}
	en.Checkpoint()
	return en.Result()
}

// DynamicsEngine is the §IV usage-dynamics campaign as an incremental
// process: each AppendDay collects one day into the live snapstore,
// streams it through the one-pass DiffPairs machinery, and updates every
// artifact in place — the Fig. 2 breakdown, the behaviour FSM, the pause
// windows, and the Table V verification rows. Construct with
// Dynamics.NewEngine.
type DynamicsEngine struct {
	campaign
	cfg        Dynamics
	classifier *status.Classifier
	verifier   *htmlverify.Verifier
	topCut     int

	tracker   *behavior.Tracker // built after the first day (multi-CDN detection)
	adoptions map[dnsmsg.Name]status.Adoption
	res       DynamicsResult
	nextDay   int
	randDraws int
}

// NewEngine builds the campaign's incremental engine: full setup, and —
// with CheckpointDir + Resume — recovery of the on-disk state, exactly as
// Run would perform it. Days may be zero: an engine has no horizon of its
// own (Run's loop bound and the campaign.days gauge are the only
// consumers), so a daemon caller can keep appending indefinitely.
func (d Dynamics) NewEngine() *DynamicsEngine {
	if d.World == nil {
		panic("experiment: Dynamics engine requires World")
	}
	if d.Days < 0 {
		panic("experiment: Dynamics.Days must not be negative")
	}
	vantage := d.Vantage
	if vantage == 0 {
		vantage = netsim.RegionOregon
	}
	en := &DynamicsEngine{
		campaign:   newCampaign(d.World, vantage, d.Keep, d.Workers, d.Policy, d.Obs),
		cfg:        d,
		classifier: status.New(match.New(d.World.Registry, dps.Profiles())),
		verifier:   htmlverify.New(d.World.NewHTTPClient(vantage)),
		topCut:     d.TopCut,
		res:        DynamicsResult{Days: d.Days, Unchanged: make(map[dps.ProviderKey]*UnchangedRow)},
	}
	en.onSeal = d.OnSeal
	en.adoptions = make(map[dnsmsg.Name]status.Adoption, len(en.domains))
	if en.topCut <= 0 {
		en.topCut = max(len(en.domains)/100, 1)
	}
	if d.Obs != nil {
		en.verifier.SetObserver(d.Obs)
		d.Obs.Gauge("campaign.days").Set(int64(d.Days))
	}
	var resumed []byte
	if blob := en.open(d.window(), d.CheckpointDir, d.CheckpointEvery, d.Resume); blob != nil {
		cur, err := decodeDynamicsCursor(blob)
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
		en.restoreCursor(cur)
		resumed = encodeCursor(en.cursor())
	}
	en.startWAL(resumed)
	return en
}

// restoreCursor adopts a recovered cursor: the loop position, the
// accumulated artifacts, and the process state the next day depends on.
func (en *DynamicsEngine) restoreCursor(cur dynamicsCursor) {
	en.nextDay = cur.NextDay
	en.randDraws = cur.RandDraws
	if cur.HaveTracker {
		en.tracker = behavior.RestoreTracker(cur.Tracker)
	}
	if cur.Adoptions != nil {
		en.adoptions = cur.Adoptions
	}
	en.res.Breakdowns = cur.Breakdowns
	if cur.Unchanged != nil {
		en.res.Unchanged = cur.Unchanged
	}
	en.restore(cur.BaseStats, cur.Health, cur.Obs, cur.WorldDay, cur.Net)
	for i := 0; i < cur.RandDraws; i++ {
		en.cfg.Rand.Float64()
	}
}

// NextDay returns the next collection-loop index — equivalently, how
// many days the campaign has collected so far (across every resume).
func (en *DynamicsEngine) NextDay() int { return en.nextDay }

// DayCounts returns one appended day's detection counts per kind (see
// behavior.Tracker.DayCounts); nil before the first day.
func (en *DynamicsEngine) DayCounts(day int) map[behavior.Kind]int {
	if en.tracker == nil {
		return nil
	}
	return en.tracker.DayCounts(day)
}

// LastBreakdown returns the newest appended day's Fig. 2 breakdown, or
// the zero value before the first day.
func (en *DynamicsEngine) LastBreakdown() AdoptionBreakdown {
	if len(en.res.Breakdowns) == 0 {
		return AdoptionBreakdown{}
	}
	return en.res.Breakdowns[len(en.res.Breakdowns)-1]
}

// AppendDay collects and seals one day and folds it into every artifact
// in place: the day streams into the snapstore (teed to the WAL when
// durable), one DiffPairs pass feeds the Fig. 2 breakdown, the
// classification cache, and the behaviour FSM, and the day's JOIN/RESUME
// detections are HTML-verified for Table V straight off the diff
// stream — only records that changed this day are ever re-verified. It
// returns the day's detections (the increment a daemon logs); the world
// then advances to the next snapshot.
func (en *DynamicsEngine) AppendDay() []behavior.Detection {
	if en.closed {
		panic("experiment: AppendDay on a closed engine")
	}
	d := en.cfg
	day := en.nextDay
	daySpan := d.Obs.Tracer().StartSpan("day", fmt.Sprintf("day %d", day))
	daySpan.SetItems(len(en.domains))
	en.collectRound(day)

	if en.tracker == nil {
		excluded := append([]dnsmsg.Name(nil), d.Excluded...)
		if !d.KeepMultiCDN {
			excluded = append(excluded, DetectMultiCDNStream(en.store.Cursor(day))...)
		}
		en.tracker = behavior.NewTracker(excluded)
	}

	b := AdoptionBreakdown{Day: day, ByProvider: make(map[dps.ProviderKey]int)}
	// changed captures the day's churned pairs straight off the diff
	// stream. A JOIN/RESUME detection only ever lands on an apex whose
	// record changed this day — classification is a pure function of the
	// record, so an unchanged record reproduces yesterday's adoption and
	// the FSM sees no transition — so the Table V verification reads its
	// IP1/IP2 inputs from here instead of re-materializing either day.
	var changed map[dnsmsg.Name]snapstore.Pair
	if day > 0 {
		changed = make(map[dnsmsg.Name]snapstore.Pair)
	}
	en.tracker.BeginDay(day)
	for pairs := en.store.DiffPairs(day); pairs.Next(); {
		p := pairs.Pair()
		unchanged := p.Unchanged()
		if changed != nil && !unchanged {
			changed[p.Apex] = p
		}
		if !p.CurOK {
			delete(en.adoptions, p.Apex)
			continue
		}
		adoption, cached := en.adoptions[p.Apex]
		if !cached || !unchanged {
			adoption = en.classifier.Classify(p.Cur)
			en.adoptions[p.Apex] = adoption
		}
		b.accum(p.Cur, adoption, en.topCut)
		// Records whose resolution failed — in full or in part — never
		// reach the FSM, so a transient failure cannot read as a
		// behaviour; neither do footnote-6 shared-IP suspects.
		if p.Cur.ResolveOK && p.Cur.NSOK && !adoption.SharedIPSuspect {
			en.tracker.ObserveOne(p.Apex, adoption)
		}
	}
	detections := en.tracker.EndDay()
	en.res.Breakdowns = append(en.res.Breakdowns, b)

	// Table V: verify origin-IP hygiene for JOIN and RESUME (§IV-C.3
	// explicitly excludes SWITCH).
	for _, det := range detections {
		if det.Kind != behavior.Join && det.Kind != behavior.Resume {
			continue
		}
		if day == 0 {
			continue // no previous day to compare against
		}
		pr, ok := changed[det.Apex]
		if !ok {
			panic(fmt.Sprintf("experiment: day %d %v detection on %s without a record change", day, det.Kind, det.Apex))
		}
		en.verifyDetection(pr, det)
	}

	en.randDraws += d.advance(en.w)
	en.nextDay = day + 1
	if en.publishing() {
		en.seal(encodeCursor(en.cursor()))
	}
	daySpan.End()
	return detections
}

// Result assembles the campaign result over everything appended so far:
// value-identical to a batch Run over the same number of days. The
// returned struct shares the engine's accumulating maps and slices, so
// read it before the next AppendDay or treat it as a snapshot that goes
// stale.
func (en *DynamicsEngine) Result() DynamicsResult {
	out := en.res
	out.Days = en.nextDay
	if en.tracker != nil {
		out.Detections = en.tracker.Detections()
		out.PauseWindows = en.tracker.PauseWindows()
		out.CountsByDay = en.tracker.CountsByDay()
	}
	// A resumed campaign adds the fresh resolver's stats on top of the
	// accounting it inherited, reproducing the uninterrupted totals.
	out.Stats = en.baseStats.Add(en.resolver.Stats())
	out.Sidelined = en.resolver.Health().Sidelined()
	return out
}

// advance moves the world to the next snapshot, with the optional long
// (2-day) interval jitter. It returns how many jitter draws it took
// from d.Rand, so a checkpoint can record the draw count and a resumed
// run can burn the same number from a fresh identically-seeded Rand.
func (d Dynamics) advance(w *world.World) int {
	w.AdvanceDay()
	if d.LongIntervalProb <= 0 {
		return 0
	}
	if d.Rand.Float64() < d.LongIntervalProb {
		// A long (2-day) gap before the next snapshot.
		w.AdvanceDay()
	}
	return 1
}

// window resolves SnapWindow.
func (d Dynamics) window() int {
	switch {
	case d.SnapWindow < 0:
		return 0 // unbounded: keep every day replayable
	case d.SnapWindow < 2:
		return 2 // minimum: DiffPairs and Table V read one day back
	default:
		return d.SnapWindow
	}
}

// accum folds one classified record into the Fig. 2 counters. Every
// field is an order-independent sum, so the breakdown does not depend
// on the order records stream in.
func (b *AdoptionBreakdown) accum(rec collect.Record, adoption status.Adoption, topCut int) {
	b.Population++
	if rec.Domain.Rank <= topCut {
		b.TopPopulation++
	}
	if adoption.Status == status.StatusNone || adoption.SharedIPSuspect {
		return
	}
	b.Total++
	b.ByProvider[adoption.Provider]++
	if rec.Domain.Rank <= topCut {
		b.TopAdopters++
	}
	if adoption.Provider == dps.Cloudflare {
		switch adoption.Rerouting {
		case dps.ReroutingNS:
			b.CloudflareNS++
		case dps.ReroutingCNAME:
			b.CloudflareCNAME++
		}
	}
}

// verifyDetection implements the §IV-C.3 three-step IP1/IP2 procedure
// over a diff pair: the record versions on either side of the detected
// action, read straight off the snapstore diff stream. The provider's
// Table V row is created before the record lookups can bail.
func (en *DynamicsEngine) verifyDetection(pr snapstore.Pair, det behavior.Detection) {
	provider := det.To
	row := en.res.Unchanged[provider]
	if row == nil {
		row = &UnchangedRow{Provider: provider}
		en.res.Unchanged[provider] = row
	}

	// IP1: the origin address observed before the action. For JOIN that is
	// the pre-join A record; for RESUME, the OFF-period A record (origin).
	if !pr.PrevOK || len(pr.Prev.Addrs) == 0 {
		return
	}
	ip1 := pr.Prev.Addrs[0]

	// IP2: the addresses answered after the action — DPS edges.
	if !pr.CurOK || len(pr.Cur.Addrs) == 0 {
		return
	}
	ip2 := pr.Cur.Addrs[0]

	row.JoinResume++
	if en.verifier.Verify(det.Apex.Child("www"), ip2, ip1).Match {
		row.IPUnchanged++
	}
}

// String renders a one-line summary for logs.
func (r DynamicsResult) String() string {
	jr, un, rate := r.TotalUnchangedRate()
	return fmt.Sprintf("dynamics: %d days, %d detections, %d pause windows, unchanged %d/%d (%.1f%%)",
		r.Days, len(r.Detections), len(r.PauseWindows), un, jr, rate*100)
}
