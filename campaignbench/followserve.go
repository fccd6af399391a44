package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/core/match"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/serve"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

const (
	// lookupRate is the offered lookup rate, split evenly over apiKeys
	// keys; each key's budget is twice its share.
	lookupRate = 200
	apiKeys    = 4
	// comparedApexes is how many apexes the follower≡checkpoint gate
	// compares, each on both lookup routes.
	comparedApexes = 48
)

// followServe is a durable §IV campaign with a follower beside it: the
// engine appends every sealed day to the snapdisk WAL and checkpoints
// every seven days, a FollowSource rebuilds its epoch from that
// directory after each sealed day, and an in-process lookup server
// answers an open-loop stream of lookups from it over loopback. Its 10k
// sites make a follower refresh cost about as much as the day it
// follows.
var followServe = workload{
	spec:        "follow-serve",
	fixedRounds: 3,
	setupReps:   5,
	setup: func(p *pass) (campaign, error) {
		p.dirs++
		c := &followRun{p: p, dir: filepath.Join(p.dir, fmt.Sprintf("ckpt-%d", p.dirs))}
		p.call("world.new", func() { c.w = world.New(p.scn.World) })
		p.set("experiment.new_engine_ms", p.call("new_engine", func() {
			c.en = experiment.Dynamics{World: c.w, Workers: max(1, runtime.NumCPU()-1),
				Policy: &p.scn.Policy, CheckpointDir: c.dir, Obs: p.reg}.NewEngine()
		}))
		var err error
		p.call("open_follow", func() { c.follow, err = serve.OpenFollow(c.dir) })
		if err == nil {
			c.disk, err = snapdisk.OpenDirReadOnly(c.dir)
		}
		if err != nil {
			c.en.Close()
			return nil, err
		}
		return c, nil
	},
}

// followRun drives the durable campaign, its follower and the server.
type followRun struct {
	p        *pass
	dir      string
	disk     *snapdisk.Dir // read-only view of dir for the replays
	w        *world.World
	en       *experiment.DynamicsEngine
	follow   *serve.FollowSource
	appended time.Time // when the last AppendDay returned

	server     *serve.Server
	stopServer chan struct{}
	served     chan error
	gen        *loadgen

	walSize    int64
	walGrowth  []float64
	lags       []float64
	refreshes  []float64
	ckptDecode []float64
	walReplay  []float64
	storeFold  []float64
	stateDec   []float64
	diffMS     []float64
	changed    []float64
	classified []float64
}

func (c *followRun) population() int { return len(c.w.Sites()) }

func (c *followRun) round() int {
	n := len(c.en.AppendDay())
	c.appended = time.Now()
	return n
}

// between refreshes the follower right after the sealed day and checks
// that it serves exactly that day; after the first day it starts the
// server and the lookup stream.
func (c *followRun) between(n int) {
	var swapped bool
	var err error
	refreshMS := c.p.call("refresh", func() { swapped, err = c.follow.Refresh() })
	c.lags = append(c.lags, float64(time.Since(c.appended))/float64(time.Millisecond))
	c.refreshes = append(c.refreshes, refreshMS)
	e, ok := c.follow.Epoch()
	switch {
	case err != nil:
		c.p.fail("round %d: follower refresh: %v", n, err)
	case !swapped || !ok || e.State.Dynamics == nil || e.State.Dynamics.NextDay != c.en.NextDay():
		c.p.fail("round %d: follower does not serve the sealed day", n)
	}
	if info, err := os.Stat(c.disk.WALPath()); err == nil {
		if info.Size() > c.walSize {
			c.walGrowth = append(c.walGrowth, float64(info.Size()-c.walSize))
		}
		c.walSize = info.Size()
	}
	if c.p.traced() && ok {
		c.replayRefresh(e)
		c.replayDiff(e.View)
	}
	if n == 0 {
		if err := c.startServing(); err != nil {
			c.p.fail("start lookup server: %v", err)
		}
	}
}

// startServing starts the lookup server on a loopback port and the
// open-loop lookup stream against it.
func (c *followRun) startServing() error {
	keys := make([]string, apiKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	perKey := 2 * float64(lookupRate) / apiKeys
	c.server = serve.New(serve.Config{Source: c.follow, APIKeys: keys, RatePerSec: perKey, Burst: int(perKey)})
	c.stopServer = make(chan struct{})
	c.served = make(chan error, 1)
	ready := make(chan string, 1)
	go func() {
		c.served <- c.server.ListenAndServe("127.0.0.1:0", c.stopServer, 5*time.Second, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-c.served:
		c.served = nil
		return err
	}
	apexes := make([]dnsmsg.Name, 0, len(c.w.Sites()))
	for _, s := range c.w.Sites() {
		apexes = append(apexes, s.Domain().Apex)
	}
	c.gen = newLoadgen("http://"+addr, lookupRate, runtime.NumCPU(), keys, apexes, c.p.seed+17)
	c.gen.Start()
	return nil
}

func (c *followRun) prefix() string { return dynamicsReport(c.en.Result()) }

func (c *followRun) finish() {
	p := c.p
	if c.gen != nil {
		c.gen.Stop()
		c.gen.summary(p)
		c.handlerLatency()
	} else {
		p.fail("the lookup server never started")
	}
	c.stopServing()

	p.set("follow_lag_ms_p50", median(c.lags))
	fmt.Fprintln(p.log, latencyLine("follow_lag_ms", c.lags, "ms"))
	p.set("serve.refresh_ms_p50", median(c.refreshes))
	p.set("snapdisk.wal_bytes_per_round", median(c.walGrowth))

	// Final checkpoint: the follower's last epoch (checkpoint + WAL) must
	// answer byte-for-byte like a CheckpointSource on the same directory,
	// before and after the follower picks the new checkpoint up.
	p.set("snapdisk.final_checkpoint_ms", p.call("checkpoint", c.en.Checkpoint))
	ckpt, err := serve.OpenCheckpoint(c.dir)
	if err != nil {
		p.fail("open final checkpoint: %v", err)
	} else {
		c.compareAnswers(ckpt, "before refresh")
		if _, err := c.follow.Refresh(); err != nil {
			p.fail("refresh after final checkpoint: %v", err)
		}
		c.compareAnswers(ckpt, "after refresh")
	}
	if p.traced() {
		c.replayCheckpoint()
		c.replayClassify()
		p.set("snapdisk.checkpoint_decode_ms", median(c.ckptDecode))
		p.set("snapdisk.wal_replay_ms", median(c.walReplay))
		p.set("serve.store_fold_ms", median(c.storeFold))
		p.set("serve.state_decode_ms", median(c.stateDec))
		p.set("snapstore.diff_ms_per_round", median(c.diffMS))
		p.set("snapstore.changed_pairs_per_round", median(c.changed))
		p.set("status.classifications_per_round", median(c.classified))
	}
	res := c.en.Result()
	p.queryStats(res.Stats)
	p.netStats(c.w)
}

// handlerLatency reads the server's own per-route latency histograms.
func (c *followRun) handlerLatency() {
	snap := c.server.Registry().Snapshot()
	h := snap.Histograms["serve.latency_us.domain"]
	hist := snap.Histograms["serve.latency_us.history"]
	for i, n := range hist.Buckets {
		if h.Buckets == nil {
			h.Buckets = map[int]uint64{}
		}
		h.Buckets[i] += n
	}
	h.Count += hist.Count
	h.Sum += hist.Sum
	c.p.set("serve.handler_us_p50", float64(h.Quantile(0.50)))
	c.p.setP99("serve.handler_us_p99", int(h.Count), float64(h.Quantile(0.99)))
	fmt.Fprintf(c.p.log, "serve handler latency (log2 buckets, upper edges): p50 %d us, p99 %d us (n=%d)\n",
		h.Quantile(0.50), h.Quantile(0.99), h.Count)
}

func (c *followRun) stopServing() {
	if c.served == nil {
		return
	}
	close(c.stopServer)
	if err := <-c.served; err != nil {
		c.p.fail("lookup server shutdown: %v", err)
	}
	c.served = nil
}

// compareAnswers checks sampled answers of the follower against src.
func (c *followRun) compareAnswers(src serve.Source, when string) {
	follower := serve.New(serve.Config{Source: c.follow}).Handler()
	reference := serve.New(serve.Config{Source: src}).Handler()
	rng := rand.New(rand.NewSource(c.p.seed + 29))
	sites := c.w.Sites()
	paths := []string{"/v1/stats", "/v1/domain/unknown.invalid"}
	for i := 0; i < comparedApexes; i++ {
		apex := string(sites[rng.Intn(len(sites))].Domain().Apex)
		paths = append(paths, "/v1/domain/"+apex, "/v1/domain/"+apex+"/history")
	}
	mismatches := 0
	for _, path := range paths {
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		follower.ServeHTTP(a, httptest.NewRequest(http.MethodGet, path, nil))
		reference.ServeHTTP(b, httptest.NewRequest(http.MethodGet, path, nil))
		if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			mismatches++
			c.p.fail("%s: follower and checkpoint answer %s differently (%d vs %d)", when, path, a.Code, b.Code)
		}
	}
	fmt.Fprintf(c.p.log, "gate: follower vs checkpoint %s: %d/%d answers byte-identical\n", when, len(paths)-mismatches, len(paths))
}

// replayRefresh repeats the public steps of FollowSource.Refresh on the
// same directory, timing each, and checks they rebuild the epoch the
// follower serves.
func (c *followRun) replayRefresh(want *serve.Epoch) {
	wal, err := os.ReadFile(c.disk.WALPath())
	if err != nil && !os.IsNotExist(err) {
		c.p.fail("replay refresh: %v", err)
		return
	}
	var st snapstore.State
	var blob []byte
	var ok bool
	c.ckptDecode = append(c.ckptDecode, timed(func() { st, blob, _, ok, err = c.disk.LatestCheckpoint() }))
	if err != nil {
		c.p.fail("replay refresh: %v", err)
		return
	}
	var days []snapdisk.WALDay
	c.walReplay = append(c.walReplay, timed(func() { days, _ = snapdisk.ReplayWALBytes(wal) }))
	var view *snapstore.View
	c.storeFold = append(c.storeFold, timed(func() {
		store := snapstore.New()
		if ok {
			if store, err = snapstore.FromState(st); err != nil {
				return
			}
		}
		for _, wd := range days {
			if last, has := store.LatestDay(); has && wd.Day <= last {
				continue
			}
			dw := store.BeginDay(wd.Day)
			for _, rec := range wd.Records {
				dw.Put(rec)
			}
			dw.Seal()
			blob = wd.Footer
		}
		view = store.SealedView()
	}))
	if err != nil {
		c.p.fail("replay refresh: %v", err)
		return
	}
	var state experiment.CampaignState
	c.stateDec = append(c.stateDec, timed(func() { state, err = experiment.DecodeCampaignState(blob) }))
	wantDay, _ := want.View.LatestDay()
	gotDay, _ := view.LatestDay()
	if err != nil || state.Dynamics == nil || gotDay != wantDay || view.Stats() != want.View.Stats() ||
		state.Dynamics.NextDay != want.State.Dynamics.NextDay {
		c.p.fail("replayed refresh does not rebuild the follower's epoch (day %d vs %d, err %v)", gotDay, wantDay, err)
	}
}

// replayDiff times one DiffPairs pass over the newest day of the view
// and counts what the engine did with it: pairs that changed, and
// records it had to classify afresh.
func (c *followRun) replayDiff(v *snapstore.View) {
	day, ok := v.LatestDay()
	if !ok {
		return
	}
	changed, classified := 0, 0
	c.diffMS = append(c.diffMS, timed(func() {
		for pc := v.DiffPairs(day); pc.Next(); {
			pr := pc.Pair()
			if !pr.Unchanged() {
				changed++
				if pr.CurOK {
					classified++
				}
			}
		}
	}))
	c.changed = append(c.changed, float64(changed))
	c.classified = append(c.classified, float64(classified))
	st := v.Stats()
	c.p.set("snapstore.versions", float64(st.Versions))
	c.p.set("snapstore.interned_names", float64(st.InternedNames))
}

// replayCheckpoint times encoding the final checkpoint's store again,
// and records the encoded size: the checkpoint file's size.
func (c *followRun) replayCheckpoint() {
	st, blob, _, ok, err := c.disk.LatestCheckpoint()
	if err != nil || !ok {
		c.p.fail("replay checkpoint: no checkpoint (%v)", err)
		return
	}
	store, err := snapstore.FromState(st)
	if err != nil {
		c.p.fail("replay checkpoint: %v", err)
		return
	}
	var runs []float64
	var size int
	for i := 0; i < 3; i++ {
		runs = append(runs, timed(func() { size = len(snapdisk.MarshalCheckpoint(store.ExportState(), blob)) }))
	}
	c.p.set("snapdisk.checkpoint_encode_ms", median(runs))
	c.p.set("snapdisk.checkpoint_bytes", float64(size))
}

// replayClassify times status.Classifier.Classify over the newest day's
// records, as the engine classifies a changed record.
func (c *followRun) replayClassify() {
	e, ok := c.follow.Epoch()
	if !ok {
		return
	}
	day, _ := e.View.LatestDay()
	cl := status.New(match.New(c.w.Registry, dps.Profiles()))
	n := 0
	ms := timed(func() {
		for cur := e.View.Cursor(day); cur.Next(); {
			cl.Classify(cur.Record())
			n++
		}
	})
	if n > 0 {
		c.p.set("status.classify_us_per_record", ms*1000/float64(n))
	}
}

func (c *followRun) close() {
	if c.gen != nil {
		select {
		case <-c.gen.stop:
		default:
			c.gen.Stop()
		}
	}
	c.stopServing()
	c.en.Close()
	c.follow.Close()
	if err := os.RemoveAll(c.dir); err != nil {
		c.p.fail("remove %s: %v", c.dir, err)
	}
}
