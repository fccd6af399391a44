package snapstore_test

// Shard-boundary tests: one snapstore per shard, records partitioned by
// the shard driver's stable apex hash. The campaign-level
// merge-equivalence guarantee rests on two store-level facts pinned
// here: a shard's cursors and diff pairs yield exactly the shard's own
// apexes (no cross-shard leakage), and the per-day union of the shard
// cursors reproduces the global store's replay record for record.
// External test package so the suite can use the real shardrun.Assign
// instead of a copy that could drift.

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/shardrun"
	"rrdps/internal/snapstore"
)

const shardCount = 4

// shardedDay is one day's population, pre-partitioned: records[i] holds
// shard i's records in global rank order, all[] the whole population.
type shardedDay struct {
	day     int
	all     []collect.Record
	byShard [][]collect.Record
}

// buildDays synthesizes a few days of churning records and partitions
// each day with shardrun.Assign.
func buildDays(days, sites int) []shardedDay {
	out := make([]shardedDay, 0, days)
	for day := 0; day < days; day++ {
		d := shardedDay{day: day, byShard: make([][]collect.Record, shardCount)}
		for rank := 1; rank <= sites; rank++ {
			// Churn: every apex skips one day in (rank mod days) to
			// exercise tombstones and re-appearances.
			if day == rank%days && day > 0 {
				continue
			}
			apex := dnsmsg.Name(fmt.Sprintf("site-%04d.example.", rank))
			rec := collect.Record{
				Domain:    alexa.Domain{Rank: rank, Apex: apex},
				Addrs:     []netip.Addr{netip.AddrFrom4([4]byte{10, byte(day), byte(rank >> 8), byte(rank)})},
				NSHosts:   []dnsmsg.Name{dnsmsg.Name(fmt.Sprintf("ns%d.host.example.", rank%7))},
				ResolveOK: true,
				NSOK:      true,
			}
			d.all = append(d.all, rec)
			i := shardrun.Assign(apex, shardCount)
			d.byShard[i] = append(d.byShard[i], rec)
		}
		out = append(out, d)
	}
	return out
}

// fillStores writes the same days into a global store and one store per
// shard.
func fillStores(days []shardedDay) (global *snapstore.Store, shards []*snapstore.Store) {
	global = snapstore.New()
	shards = make([]*snapstore.Store, shardCount)
	for i := range shards {
		shards[i] = snapstore.New()
	}
	for _, d := range days {
		dw := global.BeginDay(d.day)
		for _, rec := range d.all {
			dw.Put(rec)
		}
		dw.Seal()
		for i, recs := range d.byShard {
			sw := shards[i].BeginDay(d.day)
			for _, rec := range recs {
				sw.Put(rec)
			}
			sw.Seal()
		}
	}
	return global, shards
}

func TestShardStoresPartitionApexes(t *testing.T) {
	days := buildDays(4, 300)
	_, shards := fillStores(days)
	seen := make(map[dnsmsg.Name]int)
	for i, store := range shards {
		for _, apex := range store.SealedView().Apexes() {
			if prev, dup := seen[apex]; dup {
				t.Fatalf("%s appears in shard %d and shard %d stores — cross-shard leak", apex, prev, i)
			}
			seen[apex] = i
			if want := shardrun.Assign(apex, shardCount); want != i {
				t.Fatalf("%s stored in shard %d but Assign says %d", apex, i, want)
			}
		}
	}
	// Union covers the whole population.
	total := 0
	for _, store := range shards {
		total += len(store.SealedView().Apexes())
	}
	if total != 300 {
		t.Fatalf("shard stores hold %d apexes, want 300", total)
	}
}

func TestShardCursorsUnionToGlobalCursor(t *testing.T) {
	days := buildDays(4, 300)
	global, shards := fillStores(days)
	for _, d := range days {
		want := make(map[dnsmsg.Name]collect.Record)
		for cur := global.Cursor(d.day); cur.Next(); {
			want[cur.Apex()] = cloneRecord(cur.Record())
		}
		got := make(map[dnsmsg.Name]collect.Record)
		for i, store := range shards {
			for cur := store.Cursor(d.day); cur.Next(); {
				apex := cur.Apex()
				if _, dup := got[apex]; dup {
					t.Fatalf("day %d: %s yielded by two shard cursors", d.day, apex)
				}
				if want := shardrun.Assign(apex, shardCount); want != i {
					t.Fatalf("day %d: shard %d cursor yielded %s (Assign says %d)", d.day, i, apex, want)
				}
				got[apex] = cloneRecord(cur.Record())
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: union of shard cursors != global cursor (%d vs %d records)",
				d.day, len(got), len(want))
		}
	}
}

func TestShardDiffPairsUnionToGlobalDiffPairs(t *testing.T) {
	days := buildDays(4, 300)
	global, shards := fillStores(days)
	type pairKey struct {
		apex           dnsmsg.Name
		prevOK, curOK  bool
		prevAddr, addr string
	}
	flat := func(p snapstore.Pair) pairKey {
		k := pairKey{apex: p.Apex, prevOK: p.PrevOK, curOK: p.CurOK}
		if p.PrevOK && len(p.Prev.Addrs) > 0 {
			k.prevAddr = p.Prev.Addrs[0].String()
		}
		if p.CurOK && len(p.Cur.Addrs) > 0 {
			k.addr = p.Cur.Addrs[0].String()
		}
		return k
	}
	for _, d := range days[1:] {
		want := make(map[dnsmsg.Name]pairKey)
		for pc := global.DiffPairs(d.day); pc.Next(); {
			p := pc.Pair()
			want[p.Apex] = flat(p)
		}
		got := make(map[dnsmsg.Name]pairKey)
		for i, store := range shards {
			for pc := store.DiffPairs(d.day); pc.Next(); {
				p := pc.Pair()
				if _, dup := got[p.Apex]; dup {
					t.Fatalf("day %d: %s paired by two shard stores", d.day, p.Apex)
				}
				if want := shardrun.Assign(p.Apex, shardCount); want != i {
					t.Fatalf("day %d: shard %d diff yielded %s (Assign says %d)", d.day, i, p.Apex, want)
				}
				got[p.Apex] = flat(p)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: union of shard diff pairs != global diff pairs", d.day)
		}
	}
}

// cloneRecord deep-copies a cursor-materialized record; cursor records
// share the store's interned backing slices and are only valid until the
// next advance.
func cloneRecord(r collect.Record) collect.Record {
	out := r
	out.Addrs = append([]netip.Addr(nil), r.Addrs...)
	out.CNAMEs = append([]dnsmsg.Name(nil), r.CNAMEs...)
	out.NSHosts = append([]dnsmsg.Name(nil), r.NSHosts...)
	return out
}
