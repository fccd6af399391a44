//go:build go1.24

package dnsresolver

import (
	"runtime"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

// TestPurgeEmptiesAndReleases: after a purge every table of every stripe
// is empty, and the records the day cached become garbage — a purged
// cache holds nothing of the day before.
func TestPurgeEmptiesAndReleases(t *testing.T) {
	f := newFixture(t)
	released := make(chan dnsmsg.Name, 2)
	watch := func(name dnsmsg.Name, qtype dnsmsg.Type) {
		res, err := f.resolver.Resolve(name, qtype)
		if err != nil || len(res.Answers) == 0 {
			t.Fatalf("Resolve(%s, %s) = %v, %v", name, qtype, res.Answers, err)
		}
		// The answers are the cache's own array.
		runtime.AddCleanup(&res.Answers[0], func(n dnsmsg.Name) { released <- n }, name)
	}
	watch("www.example.com", dnsmsg.TypeA)
	watch("cdn-www.example.com", dnsmsg.TypeA)

	f.resolver.PurgeCache()
	for i := range f.resolver.cache.shards {
		s := &f.resolver.cache.shards[i]
		if n := len(s.answers) + len(s.delegations) + len(s.hostAddrs); n != 0 {
			t.Fatalf("stripe %d holds %d entries after purge", i, n)
		}
	}

	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-released:
			got++
		case <-deadline:
			t.Fatalf("%d of 2 cached answer arrays still reachable after purge", 2-got)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
