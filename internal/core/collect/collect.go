// Package collect implements the paper's DNS record collector (§IV-B.1):
// a recursive resolver that takes a daily snapshot of the A, CNAME, and NS
// records of every studied website, purging its cache before each run so
// snapshots stay independent.
package collect

import (
	"errors"
	"fmt"
	"net/netip"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
	"rrdps/internal/parallel"
)

// Record is one domain's records in a snapshot.
type Record struct {
	Domain alexa.Domain
	// Addrs are the A records of the www subdomain after CNAME chasing.
	Addrs []netip.Addr
	// CNAMEs is the alias chain (targets, in order) seen while resolving
	// the www subdomain.
	CNAMEs []dnsmsg.Name
	// NSHosts are the apex's NS records.
	NSHosts []dnsmsg.Name
	// ResolveOK reports whether the A/CNAME resolution succeeded; failed
	// domains (NXDOMAIN, SERVFAIL) stay in the snapshot with it false, so
	// day-over-day diffing can distinguish "gone" from "never asked".
	ResolveOK bool
	// NSOK reports whether the apex NS resolution succeeded. Consumers
	// that need the full record triple (the behaviour classifier) must
	// skip records with partial data: a lost NS answer must not demote an
	// OFF site to NONE.
	NSOK bool
}

// Collector drives daily collection runs.
type Collector struct {
	resolver *dnsresolver.Resolver
	domains  []alexa.Domain
	workers  int
	obs      *obs.Registry
}

// New creates a collector over the given domain list.
func New(resolver *dnsresolver.Resolver, domains []alexa.Domain) *Collector {
	if resolver == nil {
		panic("collect: resolver is required")
	}
	return &Collector{resolver: resolver, domains: append([]alexa.Domain(nil), domains...), workers: 1}
}

// SetWorkers sets the collection parallelism (default 1). The resolver and
// the fabric are safe for concurrent use; large populations collect
// several times faster with a handful of workers. Snapshots are
// value-identical to serial collection as long as the world is quiescent
// during the run (the campaign runners advance the world only between
// snapshots).
func (c *Collector) SetWorkers(n int) {
	if n < 1 {
		panic(fmt.Sprintf("collect: SetWorkers(%d)", n))
	}
	c.workers = n
}

// SetObserver installs a metrics registry on the collector and its
// resolver. Collection counters (collect.*) are derived from the
// assembled snapshot on the caller's goroutine, so they are deterministic
// regardless of worker count; the resolver's dns.* counters are volatile.
// Nil uninstalls.
func (c *Collector) SetObserver(r *obs.Registry) {
	c.obs = r
	c.resolver.SetObserver(r)
}

// CollectStream takes one snapshot labelled with day and emits each
// domain's record, in domain-list order, to emit — typically a
// snapstore.DayWriter's Put. The resolver cache is purged first, exactly
// as the paper does between daily experiments, and the resolver's
// nameserver-health tracker is checkpointed so the previous pass's
// timeout observations fold into sideline decisions while the fabric is
// quiescent. Nothing per-day is retained by the collector, so memory
// stays flat regardless of campaign length.
//
// With workers > 1 the domains fan out over a bounded pool. Each worker
// writes only its own pre-assigned slots of a pre-sized results slice,
// and the records are emitted afterwards on the caller's goroutine.
// Records are value-identical to serial collection because (a) each
// domain's record is computed by exactly one worker from the same
// quiescent world (the campaign runners advance the world only between
// snapshots), and (b) the resolver's sharded cache only memoizes answers
// that are stable while the world is quiescent, so cache hit/miss
// interleaving cannot change any record's value.
func (c *Collector) CollectStream(day int, emit func(Record)) {
	for _, rec := range c.collectAll(day) {
		emit(rec)
	}
}

// collectAll runs one daily pass and returns the records in domain-list
// order (the i-th record belongs to c.domains[i]).
func (c *Collector) collectAll(day int) []Record {
	span := c.obs.Tracer().StartSpan("collect", fmt.Sprintf("day %d", day))
	defer span.End()
	c.resolver.Checkpoint()
	c.resolver.PurgeCache()
	records := make([]Record, len(c.domains))
	parallel.For(c.workers, len(records), pass{c, records}, pass.collect)
	c.countRecords(span, records)
	return records
}

// countRecords accounts a completed pass. It runs on the caller's
// goroutine over the assembled (worker-order-independent) records, so the
// collect.* counters are deterministic even when collection ran parallel.
func (c *Collector) countRecords(span *obs.Span, records []Record) {
	span.SetItems(len(records))
	if c.obs == nil {
		return
	}
	var resolveOK, nsOK uint64
	for _, rec := range records {
		if rec.ResolveOK {
			resolveOK++
		}
		if rec.NSOK {
			nsOK++
		}
	}
	c.obs.Counter("collect.snapshots").Inc()
	c.obs.Counter("collect.domains").Add(uint64(len(records)))
	c.obs.Counter("collect.resolve_ok").Add(resolveOK)
	c.obs.Counter("collect.ns_ok").Add(nsOK)
}

// pass is one daily pass's state, handed to parallel.For as its
// argument: the method expression pass.collect allocates nothing per
// pass, where a closure over the collector and records would.
type pass struct {
	c       *Collector
	records []Record
}

// collect fills the i-th domain's record.
func (p pass) collect(i int) { p.records[i] = p.c.collectOne(p.c.domains[i]) }

func (c *Collector) collectOne(d alexa.Domain) Record {
	rec := Record{Domain: d}

	// d.WWW() would build the same string again every day; the codec's
	// table already holds it.
	aRes, err := c.resolver.Resolve(d.Apex.InternedChild("www"), dnsmsg.TypeA)
	switch {
	case err == nil:
		rec.ResolveOK = true
		rec.Addrs = aRes.Addrs()
		rec.CNAMEs = aRes.CNAMETargets()
	case errors.Is(err, dnsresolver.ErrNXDomain):
		// The chain may still be informative (stale CNAME, NXDOMAIN target).
		rec.CNAMEs = aRes.CNAMETargets()
	default:
		// SERVFAIL/timeout: record stays empty.
	}

	nsRes, err := c.resolver.Resolve(d.Apex, dnsmsg.TypeNS)
	if err == nil {
		rec.NSOK = true
		rec.NSHosts = nsRes.NSHosts()
	}
	return rec
}

// Domains returns the collector's domain list.
func (c *Collector) Domains() []alexa.Domain {
	return append([]alexa.Domain(nil), c.domains...)
}
