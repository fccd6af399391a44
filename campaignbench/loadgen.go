package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"rrdps/internal/dnsmsg"
)

const (
	// lookupTimeout bounds one lookup; a lookup that fails or is refused
	// is recorded at this latency, so it misses any latency limit.
	lookupTimeout = 5 * time.Second
	// lookupLimit is the latency a lookup must meet to count as served
	// in time.
	lookupLimit = 100 * time.Millisecond
)

// lookupReq is one scheduled lookup and the status it must get.
type lookupReq struct {
	path string
	key  string
	want int
}

// lookup is one completed lookup, timed from its due time.
type lookup struct {
	late    time.Duration // send time minus due time
	latency time.Duration // completion minus due time
	ok      bool          // got the expected status
}

// loadgen is an open-loop lookup generator: request i is due at
// start + i/rate whatever happened to the requests before it, and each
// is timed from its due time, so a stall shows as latency on every
// request it delays. At most `conns` requests are in flight, over as
// many keep-alive connections.
type loadgen struct {
	base   string
	client *http.Client
	every  time.Duration
	keys   []string
	apexes []dnsmsg.Name

	mu   sync.Mutex
	rng  *rand.Rand
	next int

	start   time.Time
	stopped time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
	results [][]lookup
}

func newLoadgen(base string, rate float64, conns int, keys []string, apexes []dnsmsg.Name, seed int64) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{
		base:    base,
		client:  &http.Client{Transport: tr, Timeout: lookupTimeout},
		every:   time.Duration(float64(time.Second) / rate),
		keys:    keys,
		apexes:  apexes,
		rng:     rand.New(rand.NewSource(seed)),
		stop:    make(chan struct{}),
		results: make([][]lookup, conns),
	}
}

// claim hands out the next request in schedule order. The request mix
// is drawn in that order too, so a seed always yields the same stream.
// The mix is an assumption, not a measured one: 2% unknown apexes (404),
// the rest split evenly between the verdict and the history route, over
// apexes of uniform popularity, with the keys taking turns.
func (g *loadgen) claim() (int, lookupReq) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.next
	g.next++
	key := g.keys[i%len(g.keys)]
	r := g.rng.Float64()
	apex := g.apexes[g.rng.Intn(len(g.apexes))]
	switch {
	case r < 0.02:
		return i, lookupReq{path: fmt.Sprintf("/v1/domain/unknown-%d.invalid", i), key: key, want: http.StatusNotFound}
	case r < 0.51:
		return i, lookupReq{path: "/v1/domain/" + string(apex) + "/history", key: key, want: http.StatusOK}
	default:
		return i, lookupReq{path: "/v1/domain/" + string(apex), key: key, want: http.StatusOK}
	}
}

// Start launches the workers.
func (g *loadgen) Start() {
	g.start = time.Now()
	for w := range g.results {
		g.wg.Add(1)
		go func(w int) {
			defer g.wg.Done()
			g.work(w)
		}(w)
	}
}

func (g *loadgen) work(w int) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		i, req := g.claim()
		due := g.start.Add(time.Duration(i) * g.every)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				return
			default:
			}
		}
		sent := time.Now()
		ok := g.do(req)
		l := lookup{late: sent.Sub(due), latency: time.Since(due), ok: ok}
		if !ok && l.latency < lookupTimeout {
			l.latency = lookupTimeout
		}
		g.results[w] = append(g.results[w], l)
	}
}

func (g *loadgen) do(req lookupReq) bool {
	hr, err := http.NewRequest(http.MethodGet, g.base+req.path, nil)
	if err != nil {
		return false
	}
	hr.Header.Set("Authorization", "Bearer "+req.key)
	resp, err := g.client.Do(hr)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == req.want
}

// Stop ends the stream and waits for the in-flight lookups.
func (g *loadgen) Stop() {
	g.stopped = time.Now()
	close(g.stop)
	g.wg.Wait()
	g.client.CloseIdleConnections()
}

// summary records the generator's metrics on p and prints them with
// their bases: latency percentiles, errors, lookups over the limit, and
// how late the generator ran.
func (g *loadgen) summary(p *pass) {
	var lat, late []float64
	var failed, slow uint64
	for _, rs := range g.results {
		for _, l := range rs {
			lat = append(lat, float64(l.latency)/float64(time.Millisecond))
			late = append(late, float64(l.late)/float64(time.Millisecond))
			if !l.ok {
				failed++
			}
			if !l.ok || l.latency > lookupLimit {
				slow++
			}
		}
	}
	n := uint64(len(lat))
	p.attempted += int64(n)
	p.failed += int64(failed)
	p.set("lookup_ms_p50", percentile(lat, 50))
	p.setP99("lookup_ms_p99", len(lat), percentile(lat, 99))
	p.setP99("loadgen.late_ms_p99", len(late), percentile(late, 99))
	fmt.Fprintln(p.log, latencyLine("lookup_ms (from due time)", lat, "ms"))
	fmt.Fprintln(p.log, latencyLine("loadgen.late_ms", late, "ms"))
	p.setRatio("lookup_error_ratio", ratio{Num: failed, Den: n, NumLabel: "unexpected status or transport error", DenomLabel: "lookups"})
	if failed > 0 {
		p.fail("%d of %d lookups got an unexpected status or a transport error", failed, n)
	}
	if n == 0 {
		p.fail("no lookup was sent")
	}
	fmt.Fprintf(p.log, "metric loadgen.over_limit_ratio = %s\n", ratio{Num: slow, Den: n,
		NumLabel: fmt.Sprintf("failed or over %v", lookupLimit), DenomLabel: "lookups"})

	// Every request due before Stop should have been sent; a backlog of
	// more than a quarter second of schedule means the generator (or
	// the server behind it) could not keep the offered rate.
	due := int(g.stopped.Sub(g.start)/g.every) + 1
	backlog := due - int(n)
	growing := time.Duration(backlog)*g.every > 250*time.Millisecond
	fmt.Fprintf(p.log, "loadgen: %d lookups at %.0f/s over %d connections, backlog at stop %d (growing=%v)\n",
		n, float64(time.Second)/float64(g.every), len(g.results), backlog, growing)
}
