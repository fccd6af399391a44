package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrdps/internal/snapstore"
)

// The campaign goldens under testdata/golden pin every output field of
// both campaign kinds at fixed seeds and configurations. They were
// written by the original map-based pipeline that materialized each day
// as a full collect.Snapshot, so they carry its outputs forward as the
// reference the snapstore pipeline must keep reproducing. Rewrite them
// only for a deliberate change of campaign semantics:
//
//	go test ./internal/core/experiment -run 'Golden|Reverify|CheckpointingMatches' -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenJSON renders a campaign result in golden form: indented JSON
// keyed by result field. The exposure trackers hold unexported state, so
// they are written through ExportState. skip names fields left out —
// the resolver Stats of a parallel run depend on goroutine interleaving
// over the shared cache, the latitude the serial≡parallel suite grants.
func goldenJSON(t *testing.T, res any, skip ...string) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	fields := make(map[string]json.RawMessage)
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("decoding result fields: %v", err)
	}
	if r, ok := res.(ResidualResult); ok {
		for name, tracker := range map[string]any{
			"CFExposure":  r.CFExposure.ExportState(),
			"IncExposure": r.IncExposure.ExportState(),
		} {
			if fields[name], err = json.Marshal(tracker); err != nil {
				t.Fatalf("encoding %s: %v", name, err)
			}
		}
	}
	for _, name := range skip {
		if _, ok := fields[name]; !ok {
			t.Fatalf("skip names unknown field %q", name)
		}
		delete(fields, name)
	}
	out, err := json.MarshalIndent(fields, "", " ")
	if err != nil {
		t.Fatalf("encoding golden: %v", err)
	}
	return append(out, '\n')
}

// checkGolden compares got with testdata/golden/<file>, or rewrites the
// file under -update. A mismatch names the first differing line.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: %s", path, firstDiff(want, got))
	}
}

// firstDiff describes where two golden renderings first part ways.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first difference at line %d:\ngolden: %.300s\ngot:    %.300s", i+1, w, g)
		}
	}
	return "renderings differ"
}

// goldenCampaigns are the configurations the golden files pin: a long
// serial Dynamics campaign, a parallel one with long-interval jitter, a
// serial Residual campaign with a delayed Incapsula study, and a
// parallel Residual one.
var goldenCampaigns = []struct {
	name string
	run  func() any
	skip []string
}{
	{name: "dynamics-42-days", run: func() any {
		return Dynamics{World: dynamicsWorld(400, 4242), Days: 42}.Run()
	}},
	{name: "dynamics-long-intervals-parallel", skip: []string{"Stats"}, run: func() any {
		return Dynamics{
			World:            dynamicsWorld(300, 777),
			Days:             20,
			Workers:          4,
			LongIntervalProb: 0.3,
			Rand:             rand.New(rand.NewSource(7)),
		}.Run()
	}},
	{name: "residual-6-weeks", run: func() any {
		return Residual{
			World:              residualWorld(400, 4242),
			Weeks:              6,
			WarmupDays:         21,
			IncapsulaStartWeek: 4,
		}.Run()
	}},
	{name: "residual-parallel", skip: []string{"Stats"}, run: func() any {
		return Residual{
			World:      residualWorld(300, 77),
			Weeks:      3,
			WarmupDays: 14,
			Workers:    4,
		}.Run()
	}},
}

// TestCampaignMatchesGolden pins every campaign output — breakdowns,
// detections, pause windows, Table V rows, weekly reports, exposure
// timelines, and (serially) the resolver's resilience accounting, which
// requires the same queries in the same order — to the goldens.
func TestCampaignMatchesGolden(t *testing.T) {
	for _, c := range goldenCampaigns {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name+".json", goldenJSON(t, c.run(), c.skip...))
		})
	}
}

// TestOnSealFootersMatchGolden pins the on-disk campaign cursor: every
// OnSeal footer blob of two small serial campaigns, one per line. The
// same bytes land in WAL footers and checkpoints, which existing
// checkpoint directories, rrserve -follow and DecodeCampaignState read,
// so they must not move when the engines are restructured. The Dynamics
// run exercises the long-interval draw count; the Residual run spans
// warm-up and Incapsula weeks.
func TestOnSealFootersMatchGolden(t *testing.T) {
	var blobs [][]byte
	collect := func(_ *snapstore.View, footer []byte) { blobs = append(blobs, footer) }
	render := func() []byte {
		out := append(bytes.Join(blobs, []byte("\n")), '\n')
		blobs = nil
		return out
	}

	Dynamics{
		World:            dynamicsWorld(60, 2718),
		Days:             6,
		LongIntervalProb: 0.5,
		Rand:             rand.New(rand.NewSource(11)),
		OnSeal:           collect,
	}.Run()
	checkGolden(t, "dynamics-footers.jsonl", render())

	Residual{
		World:              residualWorld(120, 3141),
		Weeks:              3,
		WarmupDays:         10,
		IncapsulaStartWeek: 2,
		OnSeal:             collect,
	}.Run()
	checkGolden(t, "residual-footers.jsonl", render())
}
