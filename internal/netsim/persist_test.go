package netsim

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
)

func TestCountersExportRestoreRoundTrip(t *testing.T) {
	srv2 := Endpoint{Addr: netip.MustParseAddr("203.0.113.20"), Port: PortHTTP}
	build := func() *Network {
		n := testNet(t)
		n.Register(testServer, RegionVirginia, echoHandler("a"))
		n.Register(srv2, RegionTokyo, echoHandler("b"))
		n.Register(srv2, RegionOregon, echoHandler("b2")) // anycast: second PoP
		return n
	}

	n := build()
	for i := 0; i < 5; i++ {
		if _, err := n.Send(testClient, RegionOregon, testServer, []byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Send(testClient, RegionSydney, srv2, []byte("q")); err != nil {
		t.Fatal(err)
	}
	st := n.ExportCounters()

	// The state must survive the cursor's JSON encoding.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 CountersState
	if err := json.Unmarshal(b, &st2); err != nil {
		t.Fatal(err)
	}

	n2 := build()
	if err := n2.RestoreCounters(st2); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	if !reflect.DeepEqual(n2.ExportCounters(), st) {
		t.Fatalf("restored export = %+v, want %+v", n2.ExportCounters(), st)
	}
	if got := n2.QueryCounts(testServer); got[RegionVirginia] != 5 {
		t.Fatalf("restored QueryCounts = %v, want 5 at virginia", got)
	}
	sends, drops := n2.Stats()
	wantSends, wantDrops := n.Stats()
	if sends != wantSends || drops != wantDrops {
		t.Fatalf("restored sends/drops = %d/%d, want %d/%d", sends, drops, wantSends, wantDrops)
	}
}

func TestRestoreCountersZeroesUnlistedEndpoints(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("a"))
	if _, err := n.Send(testClient, RegionOregon, testServer, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreCounters(CountersState{}); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	if got := n.QueryCounts(testServer); len(got) != 0 {
		t.Fatalf("counters after empty restore = %v, want none", got)
	}
}

func TestRestoreCountersRejectsUnknownEndpoint(t *testing.T) {
	n := testNet(t)
	err := n.RestoreCounters(CountersState{Endpoints: []EndpointCounts{
		{Addr: netip.MustParseAddr("192.0.2.1"), Port: PortDNS, Queries: map[Region]uint64{RegionTokyo: 1}},
	}})
	if err == nil {
		t.Fatal("RestoreCounters accepted an endpoint with no handler")
	}
}

// TestCountersArrayRoundTrip pins the checkpoint form of the per-region
// counters: only regions that served queries are exported, the JSON
// bytes keep their map shape, and a restore reproduces every region's
// count, RegionUnknown included.
func TestCountersArrayRoundTrip(t *testing.T) {
	anycast := Endpoint{Addr: netip.MustParseAddr("203.0.113.30"), Port: PortDNS}
	idle := Endpoint{Addr: netip.MustParseAddr("203.0.113.40"), Port: PortDNS}
	build := func() *Network {
		n := testNet(t)
		n.Register(testServer, RegionUnknown, echoHandler("u"))
		n.RegisterAnycast(anycast, RegionOregon, echoHandler("or"))
		n.RegisterAnycast(anycast, RegionTokyo, echoHandler("tk"))
		n.RegisterAnycast(anycast, RegionJohannesburg, echoHandler("jb"))
		n.Register(idle, RegionLondon, echoHandler("idle"))
		return n
	}
	n := build()
	for _, q := range []struct {
		from Region
		to   Endpoint
		n    int
	}{
		{RegionOregon, testServer, 2},
		{RegionOregon, anycast, 3},
		{RegionTokyo, anycast, 1},
		{RegionJohannesburg, anycast, 4},
	} {
		for i := 0; i < q.n; i++ {
			if _, err := n.Send(testClient, q.from, q.to, []byte("q")); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := n.ExportCounters()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"sends":10,"drops":0,"endpoints":[` +
		`{"addr":"203.0.113.10","port":53,"queries":{"0":2}},` +
		`{"addr":"203.0.113.30","port":53,"queries":{"1":3,"10":4,"6":1}}]}`
	if string(b) != want {
		t.Fatalf("exported counters\n got %s\nwant %s", b, want)
	}
	if got := n.QueryCounts(idle); len(got) != 0 {
		t.Fatalf("idle endpoint QueryCounts = %v, want empty", got)
	}

	var decoded CountersState
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	n2 := build()
	if err := n2.RestoreCounters(decoded); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	if !reflect.DeepEqual(n2.ExportCounters(), st) {
		t.Fatalf("restored export = %+v, want %+v", n2.ExportCounters(), st)
	}
	for _, c := range []struct {
		ep     Endpoint
		region Region
		want   uint64
	}{
		{testServer, RegionUnknown, 2},
		{anycast, RegionOregon, 3},
		{anycast, RegionTokyo, 1},
		{anycast, RegionJohannesburg, 4},
		{anycast, RegionLondon, 0},
		{anycast, Region(99), 0},
	} {
		if got := n2.QueryCount(c.ep, c.region); got != c.want {
			t.Errorf("restored QueryCount(%s, %s) = %d, want %d", c.ep.Addr, c.region, got, c.want)
		}
	}

	// A region the fabric cannot count is rejected before anything changes.
	bad := CountersState{Sends: 1, Endpoints: []EndpointCounts{
		{Addr: anycast.Addr, Port: anycast.Port, Queries: map[Region]uint64{Region(99): 1}},
	}}
	if err := n2.RestoreCounters(bad); err == nil {
		t.Fatal("RestoreCounters accepted an out-of-range region")
	}
	if !reflect.DeepEqual(n2.ExportCounters(), st) {
		t.Fatalf("rejected restore changed the counters: %+v", n2.ExportCounters())
	}
}

func TestRegisterRejectsOutOfRangeRegion(t *testing.T) {
	n := testNet(t)
	for _, register := range []func(Endpoint, Region, Handler){n.Register, n.RegisterAnycast} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("registering in Region(99) did not panic")
				}
			}()
			register(testServer, Region(99), echoHandler("x"))
		}()
	}
}
