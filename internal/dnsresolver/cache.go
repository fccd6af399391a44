package dnsresolver

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/obs"
)

// cacheKey identifies a cached answer RRset.
type cacheKey struct {
	name  dnsmsg.Name
	qtype dnsmsg.Type
}

// answerSlot is a cached positive or negative answer: the CNAME chain
// (possibly empty) leading to the answer, then the records of the
// requested type at the chain's end, in one backing array. rcode
// distinguishes NXDOMAIN negative entries.
type answerSlot struct {
	rrs     []dnsmsg.RR
	nchain  int32
	rcode   dnsmsg.RCode
	expires int64 // UnixNano
}

// delegationSlot caches a zone cut: the nameserver names for a zone.
type delegationSlot struct {
	hosts   []dnsmsg.Name
	expires int64
}

// hostAddrSlot caches one nameserver host's address.
type hostAddrSlot struct {
	addr    netip.Addr
	expires int64
}

// cacheShards is the lock-striping factor. Scan campaigns run dozens of
// workers against one resolver; 32 stripes keeps the probability of two
// workers colliding on one mutex low without bloating the struct.
const cacheShards = 32

// cacheShard is one stripe: a lock and its slice of each table. Lookups
// only read, so they share the lock.
type cacheShard struct {
	mu          sync.RWMutex
	answers     map[cacheKey]answerSlot
	delegations map[dnsmsg.Name]delegationSlot
	hostAddrs   map[dnsmsg.Name]hostAddrSlot
}

// cache is the resolver's TTL-aware store, sharded so concurrent scan
// workers stop serializing on a single mutex. Entries are never served
// past their expiry. It holds one day of a campaign: the paper's
// collector purges its resolver cache before every daily run so
// snapshots stay independent (§IV-B.1), and Purge empties every table in
// place, keeping the maps' buckets for the next day's working set.
//
// Every entry kind (answers, delegations, host addresses) routes to a
// shard by an FNV-1a hash of the owner name, so all records for one name
// share a stripe while distinct names spread across all of them.
type cache struct {
	shards [cacheShards]cacheShard

	// obs is atomic so lookups never contend on a process-wide mutex —
	// that would undo the sharding.
	obs atomic.Pointer[cacheObs]
}

func newCache() *cache {
	c := &cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.answers = make(map[cacheKey]answerSlot)
		s.delegations = make(map[dnsmsg.Name]delegationSlot)
		s.hostAddrs = make(map[dnsmsg.Name]hostAddrSlot)
	}
	return c
}

// shardIndex routes a name to its stripe index by FNV-1a over the name's
// bytes.
func shardIndex(name dnsmsg.Name) int {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return int(h % cacheShards)
}

// shardFor routes a name to its stripe.
func (c *cache) shardFor(name dnsmsg.Name) *cacheShard {
	return &c.shards[shardIndex(name)]
}

// setObserver installs a metrics registry for per-stripe hit/miss
// accounting; nil uninstalls.
func (c *cache) setObserver(r *obs.Registry) {
	c.obs.Store(newCacheObs(r))
}

// Purge empties every table. The cached records are released; the maps
// keep their buckets, so refilling them the next day allocates nothing.
// A put racing with Purge may land in an already-cleared stripe and
// survive, which is fine for the campaigns (they purge between runs,
// while the resolver is idle) and harmless otherwise (the entry is
// valid, just not forgotten).
func (c *cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.answers)
		clear(s.delegations)
		clear(s.hostAddrs)
		s.mu.Unlock()
	}
}

// Len returns the total number of live entries at now, summed across
// shards.
func (c *cache) Len(now time.Time) int {
	t := now.UnixNano()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.answers {
			if e.expires > t {
				n++
			}
		}
		for _, e := range s.delegations {
			if e.expires > t {
				n++
			}
		}
		for _, e := range s.hostAddrs {
			if e.expires > t {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// getAnswer returns the cached answer for key. The chain and answers are
// shared with the cache and capacity-limited, so an append by the caller
// copies.
func (c *cache) getAnswer(now time.Time, key cacheKey) (chain, answers []dnsmsg.RR, rcode dnsmsg.RCode, ok bool) {
	idx := shardIndex(key.name)
	s := &c.shards[idx]
	s.mu.RLock()
	slot, ok := s.answers[key]
	s.mu.RUnlock()
	if !ok || slot.expires <= now.UnixNano() {
		c.obs.Load().observe(idx, false)
		return nil, nil, 0, false
	}
	c.obs.Load().observe(idx, true)
	chain, answers = splitKept(slot.rrs, int(slot.nchain))
	return chain, answers, slot.rcode, true
}

// putAnswer caches rrs, a CNAME chain of nchain records followed by the
// answers at its end, without copying: the caller hands rrs over.
func (c *cache) putAnswer(now time.Time, key cacheKey, rrs []dnsmsg.RR, nchain int, rcode dnsmsg.RCode, ttl time.Duration) {
	if ttl <= 0 {
		return // zero-TTL answers are never cached
	}
	slot := answerSlot{rrs: rrs, nchain: int32(nchain), rcode: rcode, expires: now.Add(ttl).UnixNano()}
	s := c.shardFor(key.name)
	s.mu.Lock()
	s.answers[key] = slot
	s.mu.Unlock()
}

// getDelegation returns the cached nameserver hosts for zone. The slice
// is shared with the cache; callers must not mutate it.
func (c *cache) getDelegation(now time.Time, zone dnsmsg.Name) ([]dnsmsg.Name, bool) {
	idx := shardIndex(zone)
	s := &c.shards[idx]
	s.mu.RLock()
	slot, ok := s.delegations[zone]
	s.mu.RUnlock()
	if !ok || slot.expires <= now.UnixNano() {
		c.obs.Load().observe(idx, false)
		return nil, false
	}
	c.obs.Load().observe(idx, true)
	return slot.hosts, true
}

func (c *cache) putDelegation(now time.Time, zone dnsmsg.Name, hosts []dnsmsg.Name, ttl time.Duration) {
	if ttl <= 0 || len(hosts) == 0 {
		return
	}
	slot := delegationSlot{
		hosts:   append([]dnsmsg.Name(nil), hosts...),
		expires: now.Add(ttl).UnixNano(),
	}
	s := c.shardFor(zone)
	s.mu.Lock()
	s.delegations[zone] = slot
	s.mu.Unlock()
}

// closestDelegation returns the cached zone cut deepest along name's
// ancestry, if any. Each ancestor zone hashes to its own shard, so the
// walk locks at most one stripe at a time. The returned hosts slice is
// shared with the cache; callers must not mutate it.
func (c *cache) closestDelegation(now time.Time, name dnsmsg.Name) (dnsmsg.Name, []dnsmsg.Name, bool) {
	t := now.UnixNano()
	for zone := name; !zone.IsRoot(); zone = zone.Parent() {
		idx := shardIndex(zone)
		s := &c.shards[idx]
		s.mu.RLock()
		slot, ok := s.delegations[zone]
		s.mu.RUnlock()
		if ok && slot.expires > t {
			// The whole walk counts as one lookup, attributed to the
			// stripe that satisfied it.
			c.obs.Load().observe(idx, true)
			return zone, slot.hosts, true
		}
	}
	c.obs.Load().observe(shardIndex(name), false)
	return "", nil, false
}

func (c *cache) getHostAddr(now time.Time, host dnsmsg.Name) (netip.Addr, bool) {
	idx := shardIndex(host)
	s := &c.shards[idx]
	s.mu.RLock()
	slot, ok := s.hostAddrs[host]
	s.mu.RUnlock()
	if !ok || slot.expires <= now.UnixNano() {
		c.obs.Load().observe(idx, false)
		return netip.Addr{}, false
	}
	c.obs.Load().observe(idx, true)
	return slot.addr, true
}

func (c *cache) putHostAddr(now time.Time, host dnsmsg.Name, addr netip.Addr, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	slot := hostAddrSlot{addr: addr, expires: now.Add(ttl).UnixNano()}
	s := c.shardFor(host)
	s.mu.Lock()
	s.hostAddrs[host] = slot
	s.mu.Unlock()
}
