package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rrdps/internal/obs"
)

// span is one traced interval: a call the benchmark made into the
// program (Source "bench") or a phase span the program's obs tracer
// recorded (Source "obs"). Times are offsets from the trace epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: none
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Source string        `json:"source"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Items  int           `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// phaseLayers maps a span name to the layer it measures and its nesting
// depth: a span's parent is the innermost enclosing span of a smaller
// depth. The obs "warmup" span covers several rounds, so it nests
// nothing and is kept only as a record.
var phaseLayers = map[string]struct {
	layer string
	depth int
}{
	"round":       {"experiment", 0},
	"refresh":     {"serve", 0},
	"checkpoint":  {"snapdisk", 0},
	"world.new":   {"world", 0},
	"new_engine":  {"experiment", 0},
	"open_follow": {"serve", 0},
	"day":         {"experiment", 1},
	"week":        {"experiment", 1},
	"warmup":      {"experiment", -1},
	"collect":     {"collect", 2},
	"scan":        {"rrscan", 2},
	"cname":       {"rrscan", 2},
	"filter":      {"filter", 2},
	"verify":      {"htmlverify", 3},
}

func layerOf(name string) (string, int) {
	if l, ok := phaseLayers[name]; ok {
		return l.layer, l.depth
	}
	return name, 2
}

// tracer keeps spans in memory for the traced run; a nil tracer records
// nothing, so the untraced run pays for no bookkeeping.
type tracer struct {
	epoch   time.Time
	spans   []span
	reg     *obs.Registry
	nextSeq uint64
	lost    uint64 // obs events that fell off the ring before a drain
}

func newTracer(reg *obs.Registry) *tracer {
	return &tracer{epoch: time.Now(), reg: reg}
}

// begin opens a benchmark span; the returned func closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.epoch)
	return func() {
		layer, _ := layerOf(name)
		t.spans = append(t.spans, span{Name: name, Layer: layer, Source: "bench", Start: start, End: time.Since(t.epoch)})
	}
}

// drain copies the obs events recorded since the last drain. The obs
// ring holds obs.DefaultTracerCapacity events, so draining after every
// round keeps them all; any that wrapped away are counted in lost.
func (t *tracer) drain() {
	if t == nil || t.reg == nil {
		return
	}
	for _, ev := range t.reg.Tracer().Events() {
		if ev.Seq < t.nextSeq {
			continue
		}
		if ev.Seq > t.nextSeq {
			t.lost += ev.Seq - t.nextSeq
		}
		t.nextSeq = ev.Seq + 1
		layer, _ := layerOf(ev.Phase)
		start := ev.Start.Sub(t.epoch)
		t.spans = append(t.spans, span{Name: ev.Phase, Layer: layer, Source: "obs",
			Start: start, End: start + ev.Elapsed, Items: ev.Items})
	}
}

// link numbers the spans and gives each its parent: the innermost
// enclosing span of a smaller depth.
func (t *tracer) link() {
	sort.SliceStable(t.spans, func(i, j int) bool {
		if t.spans[i].Start != t.spans[j].Start {
			return t.spans[i].Start < t.spans[j].Start
		}
		return t.spans[i].dur() > t.spans[j].dur()
	})
	for i := range t.spans {
		t.spans[i].ID = i + 1
	}
	for i := range t.spans {
		s := &t.spans[i]
		_, depth := layerOf(s.Name)
		if depth < 0 {
			continue
		}
		best, bestDepth := -1, -1
		for j := range t.spans {
			p := t.spans[j]
			_, pd := layerOf(p.Name)
			if j == i || pd < 0 || pd >= depth || p.Start > s.Start || p.End < s.End {
				continue
			}
			if pd > bestDepth || (pd == bestDepth && p.dur() < t.spans[best].dur()) {
				best, bestDepth = j, pd
			}
		}
		if best >= 0 {
			s.Parent = t.spans[best].ID
		}
	}
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by ivs.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// layerRow is one line of the "where the time goes" table.
type layerRow struct {
	Layer string
	Spans int
	Items int
	Busy  time.Duration // wall time at least one of the layer's spans was open
	Self  time.Duration // busy time not covered by a child span of another layer
}

// layers aggregates the linked spans per layer. Parallel spans of one
// layer are counted once (busy is the union of their intervals).
func (t *tracer) layers() []layerRow {
	byID := make(map[int]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	own := map[string][]interval{}
	covered := map[string][]interval{}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		if _, depth := layerOf(s.Name); depth < 0 {
			continue
		}
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			rows[s.Layer] = r
		}
		r.Spans++
		r.Items += s.Items
		own[s.Layer] = append(own[s.Layer], interval{s.Start, s.End})
		if p, ok := byID[s.Parent]; ok && p.Layer != s.Layer {
			covered[p.Layer] = append(covered[p.Layer], interval{s.Start, s.End})
		}
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.Busy = unionLen(own[name])
		r.Self = r.Busy - unionLen(covered[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}

// roundCoverage returns the summed wall time of the "round" spans and
// the part of it no span of a program layer below the round covers —
// the time inside AppendDay/AppendRound that no obs span attributes.
func (t *tracer) roundCoverage() (total, unattributed time.Duration) {
	var inner []span
	for _, s := range t.spans {
		if _, depth := layerOf(s.Name); depth >= 2 {
			inner = append(inner, s)
		}
	}
	for _, r := range t.spans {
		if r.Name != "round" {
			continue
		}
		var ivs []interval
		for _, s := range inner {
			lo, hi := max(s.Start, r.Start), min(s.End, r.End)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		total += r.dur()
		unattributed += r.dur() - unionLen(ivs)
	}
	return total, unattributed
}

// busy returns the union wall time of the spans with the given name.
func (t *tracer) busy(name string) time.Duration {
	var ivs []interval
	for _, s := range t.spans {
		if s.Name == name {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return unionLen(ivs)
}

// writeTable prints the per-layer table: where a round's wall time goes.
func (t *tracer) writeTable(w io.Writer) {
	total, unattributed := t.roundCoverage()
	fmt.Fprintf(w, "traced layers (round wall %.3f s over %d obs+bench spans, %d obs events lost)\n",
		total.Seconds(), len(t.spans), t.lost)
	fmt.Fprintf(w, "  %-12s %7s %9s %10s %10s %12s\n", "layer", "spans", "items", "busy_s", "self_s", "self/rounds")
	for _, r := range t.layers() {
		share := 0.0
		if total > 0 {
			share = r.Self.Seconds() / total.Seconds()
		}
		fmt.Fprintf(w, "  %-12s %7d %9d %10.3f %10.3f %12.3f\n", r.Layer, r.Spans, r.Items, r.Busy.Seconds(), r.Self.Seconds(), share)
	}
	if total > 0 {
		fmt.Fprintf(w, "  unattributed inside rounds: %.3f s of %.3f s\n", unattributed.Seconds(), total.Seconds())
	}
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
