package dnsresolver

import (
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

func BenchmarkResolveColdCache(b *testing.B) {
	f := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.resolver.PurgeCache()
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveWarmCache(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExchangeDirect(b *testing.B) {
	f := newFixture(b)
	client := f.resolver.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveCrossZoneCNAME(b *testing.B) {
	f := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.resolver.PurgeCache()
		if _, err := f.resolver.Resolve("cdn-www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// dropAnswer deletes just (name, qtype)'s answer entry, leaving delegation
// and host-address entries warm — the miss of an answer whose TTL ran out
// before its zone's delegation did.
func dropAnswer(r *Resolver, name dnsmsg.Name, qtype dnsmsg.Type) {
	s := &r.cache.shards[shardIndex(name)]
	s.mu.Lock()
	delete(s.answers, cacheKey{name: name, qtype: qtype})
	s.mu.Unlock()
}

// BenchmarkResolveCached is the hot path the CI bench gate pins at zero
// allocations: a resolve served entirely from the answer cache.
func BenchmarkResolveCached(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveUncached is the answer-cache-miss path with warm
// delegations: one authoritative exchange plus the re-cache of its
// answer, the steady-state cost once an answer's TTL runs out.
func BenchmarkResolveUncached(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dropAnswer(f.resolver, "www.example.com", dnsmsg.TypeA)
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResolveAllocBudget pins the allocs/op budget the CI bench gate
// enforces: the cached path allocates nothing, the uncached path at most
// 4 per op. A regression here is a correctness failure, not a perf note —
// the zero-alloc hot path is this PR's contract.
func TestResolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is enforced by the non-race run")
	}
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	cached := testing.AllocsPerRun(200, func() {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if cached != 0 {
		t.Errorf("cached resolve: %.1f allocs/op, want 0", cached)
	}
	uncached := testing.AllocsPerRun(200, func() {
		dropAnswer(f.resolver, "www.example.com", dnsmsg.TypeA)
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if uncached > 4 {
		t.Errorf("uncached resolve: %.1f allocs/op, want <= 4", uncached)
	}
}

// TestPurgedDomainDayAllocBudget pins what one site costs a collector
// that purges its cache every day: a cold www A resolve and the apex NS
// resolve, with the addresses and hosts extracted as the collector does.
// The fixture's apex has two nameservers, like most measured sites. Only
// what outlives the walk may allocate: the two kept answer sets, the
// delegations of com and example.com (a campaign shares com's across all
// its sites), and the extracted addresses and hosts. Decoding and serving
// the www NODATA answer's SOA must not.
func TestPurgedDomainDayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is enforced by the non-race run")
	}
	f := newFixture(t)
	f.authZone.MustAdd(dnsmsg.NewNS("example.com", 24*time.Hour, "ns2.example.com"))
	f.authZone.MustAdd(dnsmsg.NewA("ns2.example.com", 24*time.Hour, f.authAddr))
	day := func() {
		f.resolver.PurgeCache()
		a, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := f.resolver.Resolve("example.com", dnsmsg.TypeNS)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Addrs()) != 1 || len(ns.NSHosts()) != 2 {
			t.Fatalf("addrs %v, NS hosts %v", a.Addrs(), ns.NSHosts())
		}
	}
	day() // warm the name table, the scratch pools and the cache's maps
	const budget = 6
	if got := testing.AllocsPerRun(100, day); got > budget {
		t.Errorf("purged-cache domain-day: %.1f allocs, want <= %d", got, budget)
	}
}
