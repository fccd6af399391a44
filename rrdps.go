package rrdps

import (
	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/filter"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/report"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/serve"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
	"rrdps/internal/vectors"
	"rrdps/internal/website"
	"rrdps/internal/world"
)

// This file is the library's public API: a curated facade over the
// internal packages. Downstream users build a World, run the campaign
// runners, and render reports — the same workflow the cmd/ binaries and
// examples/ follow.

// ---------------------------------------------------------------------------
// World construction.

// Config parametrizes a simulated Internet; see PaperConfig for the
// calibrated defaults.
type Config = world.Config

// ExposureRates sets the Table I attack-surface probabilities for
// generated sites.
type ExposureRates = world.ExposureRates

// World is a fully wired simulated Internet: DNS backbone, the eleven
// Table II providers, a hosting service, and a ranked website population.
type World = world.World

// Event is one ground-truth usage behaviour the world generated.
type Event = world.Event

// PaperConfig returns a configuration calibrated to the paper's reported
// aggregates for a population of numSites.
func PaperConfig(numSites int) Config { return world.PaperConfig(numSites) }

// NewWorld builds a world; identical configs build identical worlds.
func NewWorld(cfg Config) *World { return world.New(cfg) }

// ---------------------------------------------------------------------------
// Campaign runners (the paper's experiments).

// Dynamics runs the §IV usage-dynamics campaign (Figs. 2/3/5/6, Table V).
type Dynamics = experiment.Dynamics

// DynamicsResult carries the §IV campaign outputs.
type DynamicsResult = experiment.DynamicsResult

// Residual runs the §V residual-resolution campaign (Table VI, Fig. 9).
type Residual = experiment.Residual

// ResidualResult carries the §V campaign outputs.
type ResidualResult = experiment.ResidualResult

// DynamicsEngine is the incremental form of the Dynamics campaign: build
// one with Dynamics.NewEngine, then AppendDay/Checkpoint/Result at the
// caller's own cadence — the daemon (-follow) mode's substrate. Batch
// Run() is a thin loop over the same engine, so appended and batch
// results are value-identical.
type DynamicsEngine = experiment.DynamicsEngine

// ResidualEngine is the incremental form of the Residual campaign
// (AppendRound seals one collection round: a warmup day or a scan week).
type ResidualEngine = experiment.ResidualEngine

// PurgeTrial replicates the §V-A.3 controlled purge experiment.
type PurgeTrial = experiment.PurgeTrial

// ---------------------------------------------------------------------------
// Scenario specs (declarative campaign configuration).

// ScenarioSpec is a parsed, validated, canonicalized scenario document:
// the versioned JSON spec format the -scenario flag consumes. Canonical
// holds the defaults-applied canonical encoding and Hash its SHA-256 —
// the provenance identity recorded in campaign checkpoints.
type ScenarioSpec = scenario.Spec

// CompiledScenario is a ScenarioSpec lowered onto the runtime types: a
// world Config, a resolver Policy, the campaign horizon, and (for
// residual campaigns) an optional attack load.
type CompiledScenario = scenario.Compiled

// ScenarioError is a spec loading/validation failure anchored to a line
// of the offending file ("file.json:7: campaign: churnBoost must be > 0").
type ScenarioError = scenario.Error

// ScenarioInfo is the provenance a compiled scenario threads into
// campaign results and checkpoints (name, spec hash, canonical bytes);
// the lookup service reports it under /v1/stats.
type ScenarioInfo = experiment.ScenarioInfo

// Scenario campaign kinds (Campaign.Kind in a spec document).
const (
	ScenarioDynamics = scenario.CampaignDynamics
	ScenarioResidual = scenario.CampaignResidual
)

// LoadScenario reads, parses, validates, and canonicalizes a scenario
// spec file (rrdps/v1, or rrdps/v1alpha1 converted on the way in).
var LoadScenario = scenario.Load

// ParseScenario is LoadScenario over bytes already in hand; file is used
// only to label errors.
var ParseScenario = scenario.Parse

// CompileScenario lowers a validated spec onto the runtime configuration
// types. Compilation is infallible: every failure mode is caught by
// validation at parse time.
var CompileScenario = scenario.Compile

// ---------------------------------------------------------------------------
// Pipeline building blocks, for callers composing their own campaigns.

// Collector takes daily A/CNAME/NS snapshots.
type Collector = collect.Collector

// Snapshot is one day's collected records as a full map.
//
// Snapshot is an adapter kept so map-based callers still compile; no
// campaign uses it. New code should stream Collector.CollectStream into
// a SnapshotStore and read days back through SnapshotCursor /
// SnapshotPairCursor (or SnapshotStore.SnapshotAt when a map really is
// needed), as the campaign runners do.
type Snapshot = collect.Snapshot

// SnapshotStore is the append-only, delta-encoded, name-interned store for
// daily snapshots: each day costs only what changed, any retained day
// replays as a virtual full snapshot, and SetWindow bounds retention for
// arbitrarily long campaigns.
type SnapshotStore = snapstore.Store

// SnapshotWriter appends one day to a SnapshotStore
// (BeginDay → Put every record → Seal).
type SnapshotWriter = snapstore.DayWriter

// SnapshotCursor replays one stored day in rank order, one record at a
// time.
type SnapshotCursor = snapstore.Cursor

// SnapshotPair is one apex's (previous day, current day) record pair.
type SnapshotPair = snapstore.Pair

// SnapshotPairCursor streams a day-over-day diff as SnapshotPairs — the
// §IV-B.3 diff without materializing either day as a map.
type SnapshotPairCursor = snapstore.PairCursor

// SnapshotStoreStats describes a store's retained shape (days, versions,
// tombstones, interned names).
type SnapshotStoreStats = snapstore.Stats

// NewSnapshotStore builds an empty snapshot store with unbounded
// retention.
var NewSnapshotStore = snapstore.New

// ---------------------------------------------------------------------------
// Durability (checkpoints and the write-ahead log).

// SnapshotState is a SnapshotStore's full logical state in plain slices —
// the unit the checkpoint format serializes.
type SnapshotState = snapstore.State

// ExportSnapshotState captures a store's state for checkpointing.
func ExportSnapshotState(s *SnapshotStore) SnapshotState { return s.ExportState() }

// SnapshotStoreFromState rebuilds a store from a checkpointed state,
// validating every internal invariant.
var SnapshotStoreFromState = snapstore.FromState

// CheckpointDir manages a directory of rotated campaign checkpoints plus
// the write-ahead log covering the rounds since the newest one.
type CheckpointDir = snapdisk.Dir

// WAL is the day-level write-ahead log a campaign tees Put records into;
// only sealed day groups count as durable.
type WAL = snapdisk.WAL

// WALDay is one sealed day group recovered from a write-ahead log.
type WALDay = snapdisk.WALDay

// OpenCheckpointDir opens (creating if needed) a checkpoint directory.
var OpenCheckpointDir = snapdisk.OpenDir

// OpenWAL opens a write-ahead log for appending, creating it if needed.
var OpenWAL = snapdisk.OpenWAL

// ReplayWAL reads back a log's sealed day groups, dropping any torn tail.
var ReplayWAL = snapdisk.ReplayWAL

// MarshalCheckpoint / UnmarshalCheckpoint are the versioned, checksummed
// binary checkpoint codec (store state + an opaque campaign blob).
var (
	MarshalCheckpoint   = snapdisk.MarshalCheckpoint
	UnmarshalCheckpoint = snapdisk.UnmarshalCheckpoint
)

// ErrCheckpointCorrupt is the sentinel every snapdisk decode error wraps.
var ErrCheckpointCorrupt = snapdisk.ErrCorrupt

// ---------------------------------------------------------------------------
// Lookup service (the cmd/rrserve HTTP API).

// SnapshotView is an immutable read surface over a snapshot store: the
// store's sealed state frozen at one round, safe to read from any
// goroutine while the campaign keeps writing.
type SnapshotView = snapstore.View

// CampaignState is a campaign cursor decoded into its exported products
// (adoptions, tracker history, weekly reports, exposure timelines).
type CampaignState = experiment.CampaignState

// DecodeCampaignState decodes a checkpoint's campaign blob.
var DecodeCampaignState = experiment.DecodeCampaignState

// OpenCheckpointDirReadOnly opens an existing checkpoint directory
// without creating, truncating, or replaying anything — the attachment
// mode for read-only consumers like the lookup service.
var OpenCheckpointDirReadOnly = snapdisk.OpenDirReadOnly

// LookupServer is the residual-resolution lookup service over a
// snapstore: exposure verdicts, hidden records, and adoption history as
// an HTTP API with auth, rate limiting, and request metrics.
type LookupServer = serve.Server

// LookupConfig wires a LookupServer.
type LookupConfig = serve.Config

// LookupEpoch is one sealed round's queryable state.
type LookupEpoch = serve.Epoch

// LookupSource supplies epochs to a LookupServer.
type LookupSource = serve.Source

// CheckpointLookupSource serves a checkpoint directory's newest state.
type CheckpointLookupSource = serve.CheckpointSource

// LiveLookupSource attaches a LookupServer to a running campaign via the
// campaign's OnSeal hook.
type LiveLookupSource = serve.LiveSource

// NewLookupServer builds a lookup server.
var NewLookupServer = serve.New

// OpenLookupCheckpoint loads the newest checkpoint in dir as a source.
var OpenLookupCheckpoint = serve.OpenCheckpoint

// FollowLookupSource tails a checkpoint directory another process is
// writing, swapping in a new epoch whenever a round seals — the
// `rrserve -follow` mode. Answers are never more than one poll interval
// behind the newest durable round.
type FollowLookupSource = serve.FollowSource

// OpenLookupFollow opens dir for following; the directory may be empty
// (the source reports no epoch until the first round seals).
var OpenLookupFollow = serve.OpenFollow

// Matcher attributes DNS records to providers (A/CNAME/NS matching).
type Matcher = match.Matcher

// Classifier derives the Table III ON/OFF/NONE status.
type Classifier = status.Classifier

// BehaviorTracker detects the Table IV behaviours via the Fig. 4 FSM.
type BehaviorTracker = behavior.Tracker

// Verifier performs the HTML verification of §IV-C.3.
type Verifier = htmlverify.Verifier

// FilterPipeline is the Fig. 8 hidden-record filtering procedure.
type FilterPipeline = filter.Pipeline

// FilterReport summarizes one filtering pass.
type FilterReport = filter.Report

// ExposureTracker accumulates weekly scans into the Fig. 9 timeline.
type ExposureTracker = exposure.Tracker

// Scanner issues the §V direct scans from vantage-point clients.
type Scanner = rrscan.Scanner

// VectorScanner runs the eight Table I origin-exposure vectors.
type VectorScanner = vectors.Scanner

// VectorAudit aggregates a Table I audit over many sites.
type VectorAudit = vectors.AuditResult

// NewCollector builds a collector over a resolver and domain list.
var NewCollector = collect.New

// NewMatcher builds a matcher over an AS registry and provider profiles.
var NewMatcher = match.New

// NewClassifier builds a Table III classifier.
var NewClassifier = status.New

// NewBehaviorTracker builds a behaviour tracker with an exclusion list.
var NewBehaviorTracker = behavior.NewTracker

// NewVerifier builds an HTML verifier over an HTTP client.
var NewVerifier = htmlverify.New

// NewFilterPipeline builds the Fig. 8 pipeline.
var NewFilterPipeline = filter.New

// NewExposureTracker builds a week-over-week exposure tracker.
var NewExposureTracker = exposure.NewTracker

// NewScanner builds a direct scanner over vantage clients.
var NewScanner = rrscan.NewScanner

// DiscoverNameservers extracts a provider's NS-hosting nameservers from
// snapshots.
var DiscoverNameservers = rrscan.DiscoverNameservers

// ---------------------------------------------------------------------------
// Providers, sites, DNS.

// ProviderKey identifies one of the eleven Table II providers.
type ProviderKey = dps.ProviderKey

// Provider profile keys.
const (
	Akamai     = dps.Akamai
	Cloudflare = dps.Cloudflare
	Cloudfront = dps.Cloudfront
	CDN77      = dps.CDN77
	CDNetworks = dps.CDNetworks
	DOSarrest  = dps.DOSarrest
	Edgecast   = dps.Edgecast
	Fastly     = dps.Fastly
	Incapsula  = dps.Incapsula
	Limelight  = dps.Limelight
	Stackpath  = dps.Stackpath
)

// Rerouting identifies a DNS-based rerouting mechanism.
type Rerouting = dps.Rerouting

// Rerouting mechanisms (§II-A.2).
const (
	ReroutingA     = dps.ReroutingA
	ReroutingCNAME = dps.ReroutingCNAME
	ReroutingNS    = dps.ReroutingNS
)

// Plan is a DPS service plan (free plans purge residual records sooner).
type Plan = dps.Plan

// Plans.
const (
	PlanFree = dps.PlanFree
	PlanPaid = dps.PlanPaid
)

// Profile is a provider's static Table II description.
type Profile = dps.Profile

// Profiles returns the eleven Table II provider profiles.
func Profiles() []Profile { return dps.Profiles() }

// Site is one website: origin server, own DNS zone, admin operations.
type Site = website.Site

// SiteExposure is a site's Table I attack surface.
type SiteExposure = website.Exposure

// Name is a normalized DNS name.
type Name = dnsmsg.Name

// ParseName validates and normalizes a domain name.
var ParseName = dnsmsg.ParseName

// Resolver is an iterative DNS resolver with a purgeable TTL cache.
type Resolver = dnsresolver.Resolver

// DNSClient issues direct queries to specific nameservers (the attacker's
// tool in §III-B).
type DNSClient = dnsresolver.Client

// Region locates vantage points and PoPs.
type Region = netsim.Region

// VantageRegions returns the paper's five measurement vantage points.
var VantageRegions = netsim.VantageRegions

// ---------------------------------------------------------------------------
// Observability.

// MetricsRegistry collects counters, gauges, histograms, and phase spans
// from a campaign. Pass one via Dynamics.Obs / Residual.Obs; a nil
// registry disables all instrumentation at zero cost.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics, with
// Diff/Merge/Deterministic for comparing runs.
type MetricsSnapshot = obs.Snapshot

// MetricsDump bundles a snapshot with the tracer's phase summaries and
// recent span events; it is what the -metrics flag serializes.
type MetricsDump = obs.Dump

// NewMetricsRegistry builds an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// ---------------------------------------------------------------------------
// Reporting.

// Report renderers for every table and figure (text and CSV forms).
var (
	RenderTableI    = report.TableI
	RenderTableII   = report.TableII
	RenderTableIII  = report.TableIII
	RenderTableIV   = report.TableIV
	RenderFigure2   = report.Figure2
	RenderFigure3   = report.Figure3
	RenderFigure5   = report.Figure5
	RenderFigure6   = report.Figure6
	RenderFigure7   = report.Figure7
	RenderFigure9   = report.Figure9
	RenderTableV    = report.TableV
	RenderTableVI   = report.TableVI
	Figure2CSV      = report.Figure2CSV
	Figure3CSV      = report.Figure3CSV
	Figure5CSV      = report.Figure5CSV
	Figure9CSV      = report.Figure9CSV
	TableVCSV       = report.TableVCSV
	TableVICSV      = report.TableVICSV
	RenderPauseCDFs = report.PauseCDF

	RenderObservability = report.Observability
	ObservabilityCSV    = report.ObservabilityCSV
)
