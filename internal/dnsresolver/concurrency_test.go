package dnsresolver

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

// TestConcurrentResolves hammers one resolver from many goroutines; the
// race detector and the answer checks cover cache and client locking.
func TestConcurrentResolves(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := dnsmsg.Name("www.example.com")
			if i%2 == 1 {
				name = "cdn-www.example.com"
			}
			res, err := f.resolver.Resolve(name, dnsmsg.TypeA)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Addrs()) != 1 {
				errs <- errMissingAnswer
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMissingAnswer = &missingAnswerError{}

type missingAnswerError struct{}

func (*missingAnswerError) Error() string { return "resolution returned no addresses" }

// TestConcurrentResolveAndPurge mixes cache purges into concurrent
// resolutions.
func TestConcurrentResolveAndPurge(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.resolver.PurgeCache()
			}
		}
	}()
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestConcurrentZoneMutationDuringResolve mutates the authoritative zone
// while resolutions are in flight; answers must always be one of the two
// valid addresses, never torn state.
func TestConcurrentZoneMutationDuringResolve(t *testing.T) {
	f := newFixture(t)
	a1 := netip.MustParseAddr("10.1.0.1")
	a2 := netip.MustParseAddr("10.1.0.2")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
				addr := a1
				if flip {
					addr = a2
				}
				flip = !flip
				if err := f.authZone.Set("www.example.com", dnsmsg.TypeA,
					dnsmsg.NewA("www.example.com", time.Minute, addr)); err != nil {
					t.Errorf("zone set: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				f.resolver.PurgeCache()
				res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
				if err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				got := res.Addrs()
				if len(got) != 1 || (got[0] != a1 && got[0] != a2) {
					t.Errorf("torn answer: %v", got)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
