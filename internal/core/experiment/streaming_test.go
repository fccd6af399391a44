package experiment

import (
	"reflect"
	"testing"

	"rrdps/internal/world"
)

// diffResults compares two campaign results field by field so a mismatch
// names the diverging output instead of dumping two whole structs. skip
// names fields excluded from the comparison: with Workers > 1 the
// resolver's Stats depend on goroutine interleaving over the shared cache
// (the same latitude the serial≡parallel determinism tests allow), so
// parallel sub-tests skip "Stats" and serial sub-tests pin everything.
func diffResults(t *testing.T, got, want any, skip ...string) {
	t.Helper()
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	sv, lv := reflect.ValueOf(got), reflect.ValueOf(want)
	if sv.Type() != lv.Type() {
		t.Fatalf("type mismatch: %v vs %v", sv.Type(), lv.Type())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if skipped[name] {
			continue
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), lv.Field(i).Interface()) {
			t.Errorf("%s differs:\ngot:  %+v\nwant: %+v",
				name, sv.Field(i).Interface(), lv.Field(i).Interface())
		}
	}
}

// TestSnapWindowDoesNotChangeResults pins that the retention window is
// invisible in the outputs: evicted days are never read back.
func TestSnapWindowDoesNotChangeResults(t *testing.T) {
	bounded := Dynamics{World: dynamicsWorld(300, 99), Days: 10}.Run()
	unbounded := Dynamics{World: dynamicsWorld(300, 99), Days: 10, SnapWindow: -1}.Run()
	diffResults(t, bounded, unbounded)
}

// TestStreamingWorldConsistency pins that measuring never perturbs the
// ground truth: the world after a Dynamics run carries the same event
// stream as an identical world advanced by bare AdvanceDay calls.
func TestStreamingWorldConsistency(t *testing.T) {
	const days = 8
	measured, bare := dynamicsWorld(200, 5150), dynamicsWorld(200, 5150)
	Dynamics{World: measured, Days: days}.Run()
	for day := 0; day < days; day++ {
		bare.AdvanceDay()
	}
	if measured.Day() != bare.Day() {
		t.Fatalf("world day %d after the campaign, %d after bare advances", measured.Day(), bare.Day())
	}
	if len(bare.Events()) == 0 {
		t.Fatal("no world events at all; the comparison is vacuous")
	}
	if !reflect.DeepEqual(worldEvents(measured), worldEvents(bare)) {
		t.Fatal("world event stream after the campaign differs from bare advancement")
	}
}

func worldEvents(w *world.World) []world.Event {
	return append([]world.Event(nil), w.Events()...)
}
