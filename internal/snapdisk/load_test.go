package snapdisk

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rrdps/internal/core/collect"
	"rrdps/internal/snapstore"
)

// loadDays is a small campaign: per-day deltas, a tombstone (gamma on
// day 2), a reappearance (day 3) and enough days for a window of 3 to
// evict some of them.
func loadDays() map[int][]collect.Record {
	alpha := rec(1, "alpha.com", []string{"10.0.0.1"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true)
	beta := rec(2, "beta.com", []string{"10.0.0.2"}, nil, []string{"ns1.beta.com"}, true, true)
	gamma := rec(3, "gamma.com", nil, nil, nil, false, false)
	betaB := rec(2, "beta.com", []string{"10.9.9.9"}, []string{"edge.cdn.net"}, nil, true, true)
	alphaB := rec(1, "alpha.com", []string{"10.0.0.7"}, nil, []string{"ns1.alpha.com"}, true, true)
	return map[int][]collect.Record{
		0: {alpha, beta, gamma},
		1: {alpha, betaB, gamma},
		2: {alpha, betaB},
		3: {alphaB, betaB, gamma},
		4: {alphaB, beta, gamma},
	}
}

// appendDays seals the given days into s, in order.
func appendDays(s *snapstore.Store, days map[int][]collect.Record, from, to int) {
	for day := from; day <= to; day++ {
		w := s.BeginDay(day)
		for _, r := range days[day] {
			w.Put(r)
		}
		w.Seal()
	}
}

// writeWAL seals days [from, to] into dir's WAL with footer "day-N",
// then leaves a torn tail: an unsealed day 9 followed by half an entry.
func writeWAL(t *testing.T, d *Dir, days map[int][]collect.Record, from, to int) {
	t.Helper()
	w, err := OpenWAL(d.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	for day := from; day <= to; day++ {
		if err := w.BeginDay(day); err != nil {
			t.Fatal(err)
		}
		for _, r := range days[day] {
			if err := w.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.SealDay([]byte(fmt.Sprintf("day-%d", day))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.BeginDay(9); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(days[from][0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(d.WALPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{walPut, 40, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirLoadFoldsCheckpointAndWAL pins the shared recovery fold: the
// newest checkpoint plus the sealed WAL groups past it equals a store
// built by appending the same days directly, the cursor is the last
// sealed footer, and the torn tail is dropped.
func TestDirLoadFoldsCheckpointAndWAL(t *testing.T) {
	const window = 3
	days := loadDays()
	want := snapstore.New()
	want.SetWindow(window)
	appendDays(want, days, 0, 4)

	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck := snapstore.New()
	ck.SetWindow(window)
	appendDays(ck, days, 0, 1)
	if err := d.WriteCheckpoint(1, ck.ExportState(), []byte("day-1")); err != nil {
		t.Fatal(err)
	}
	// Day 1 is in both: the fold must skip what the checkpoint covers.
	writeWAL(t, d, days, 1, 4)

	// A positive window and 0 (keep the checkpoint's) agree here.
	for _, w := range []int{window, 0} {
		got, campaign, ok, err := d.Load(w)
		if err != nil || !ok {
			t.Fatalf("Load(%d): ok=%v err=%v", w, ok, err)
		}
		if string(campaign) != "day-4" {
			t.Fatalf("Load(%d) cursor = %q, want the last sealed footer day-4", w, campaign)
		}
		if last, _ := got.LatestDay(); last != 4 {
			t.Fatalf("Load(%d) latest day = %d, want 4 (torn day 9 dropped)", w, last)
		}
		diffStates(t, got.ExportState(), want.ExportState())
	}
}

// TestDirLoadWALOnly covers a crash before the first checkpoint: the
// window is applied before the fold, so eviction matches the live run.
func TestDirLoadWALOnly(t *testing.T) {
	days := loadDays()
	want := snapstore.New()
	want.SetWindow(2)
	appendDays(want, days, 0, 4)

	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	writeWAL(t, d, days, 0, 4)
	got, campaign, ok, err := d.Load(2)
	if err != nil || !ok || string(campaign) != "day-4" {
		t.Fatalf("Load: ok=%v campaign=%q err=%v", ok, campaign, err)
	}
	diffStates(t, got.ExportState(), want.ExportState())
}

func TestDirLoadEmpty(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, campaign, ok, err := d.Load(0); ok || campaign != nil || err != nil {
		t.Fatalf("empty dir: ok=%v campaign=%q err=%v", ok, campaign, err)
	}
}

func TestDirLoadRejectsCheckpointWithoutCampaign(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCheckpoint(1, testStore(t).ExportState(), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.Load(0); err == nil {
		t.Fatal("Load accepted a checkpoint without campaign state")
	}
}
