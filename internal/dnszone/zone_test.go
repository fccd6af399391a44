package dnszone

import (
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

func newTestZone(t *testing.T) *Zone {
	t.Helper()
	return New("example.com", dnsmsg.SOAData{
		MName:  "ns1.example.com",
		RName:  "admin.example.com",
		Serial: 1,
	})
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestLookupAnswer(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.2")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindAnswer {
		t.Fatalf("Kind = %v, want answer", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %v", res.Records)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	res := z.Lookup("missing.example.com", dnsmsg.TypeA)
	if res.Kind != KindNXDomain {
		t.Fatalf("Kind = %v, want nxdomain", res.Kind)
	}
	if res.SOA.Type() != dnsmsg.TypeSOA {
		t.Fatal("NXDOMAIN result missing SOA")
	}
}

func TestLookupNoData(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	res := z.Lookup("www.example.com", dnsmsg.TypeMX)
	if res.Kind != KindNoData {
		t.Fatalf("Kind = %v, want nodata", res.Kind)
	}
}

func TestLookupEmptyNonTerminalIsNoData(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("a.b.example.com", time.Minute, addr("10.0.0.1")))
	// "b.example.com" has no records but exists as a node.
	res := z.Lookup("b.example.com", dnsmsg.TypeA)
	if res.Kind != KindNoData {
		t.Fatalf("Kind = %v, want nodata for empty non-terminal", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "edge.example.com"))
	z.MustAdd(dnsmsg.NewA("edge.example.com", time.Minute, addr("10.9.9.9")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindCNAME {
		t.Fatalf("Kind = %v, want cname", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %v, want CNAME + A", res.Records)
	}
	if res.Records[0].Type() != dnsmsg.TypeCNAME || res.Records[1].Type() != dnsmsg.TypeA {
		t.Fatalf("chain order wrong: %v", res.Records)
	}
}

func TestLookupCNAMEChainOutOfZone(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "x.cdn.incapdns.net"))
	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindCNAME || len(res.Records) != 1 {
		t.Fatalf("res = %+v, want bare CNAME", res)
	}
}

func TestLookupCNAMELoopTerminates(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("a.example.com", time.Minute, "b.example.com"))
	z.MustAdd(dnsmsg.NewCNAME("b.example.com", time.Minute, "a.example.com"))
	done := make(chan Result, 1)
	go func() { done <- z.Lookup("a.example.com", dnsmsg.TypeA) }()
	select {
	case res := <-done:
		if res.Kind != KindCNAME {
			t.Fatalf("Kind = %v", res.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CNAME loop lookup did not terminate")
	}
}

func TestLookupQueryForCNAMEItself(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewCNAME("www.example.com", time.Minute, "edge.example.com"))
	res := z.Lookup("www.example.com", dnsmsg.TypeCNAME)
	if res.Kind != KindAnswer || len(res.Records) != 1 {
		t.Fatalf("res = %+v, want direct CNAME answer", res)
	}
}

func TestLookupReferral(t *testing.T) {
	// A TLD-style zone delegating example.com to external nameservers.
	z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "kate.ns.cloudflare.com"))
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "rob.ns.cloudflare.com"))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("Kind = %v, want referral", res.Kind)
	}
	if len(res.Records) != 2 {
		t.Fatalf("NS records = %v", res.Records)
	}

	// Query exactly at the cut is also a referral.
	res = z.Lookup("example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("at-cut Kind = %v, want referral", res.Kind)
	}
}

func TestLookupReferralWithGlue(t *testing.T) {
	z := New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.example.com"))
	z.MustAdd(dnsmsg.NewA("ns1.example.com", time.Hour, addr("10.1.1.1")))

	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if res.Kind != KindReferral {
		t.Fatalf("Kind = %v", res.Kind)
	}
	if len(res.Glue) != 1 || res.Glue[0].Data.(dnsmsg.AData).Addr != addr("10.1.1.1") {
		t.Fatalf("glue = %v", res.Glue)
	}
}

func TestApexNSIsNotReferral(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.example.com"))
	res := z.Lookup("example.com", dnsmsg.TypeNS)
	if res.Kind != KindAnswer {
		t.Fatalf("apex NS lookup Kind = %v, want answer", res.Kind)
	}
}

func TestLookupOutsideZonePanics(t *testing.T) {
	z := newTestZone(t)
	defer func() {
		if recover() == nil {
			t.Fatal("lookup outside zone did not panic")
		}
	}()
	z.Lookup("other.org", dnsmsg.TypeA)
}

func TestAddOutsideZoneFails(t *testing.T) {
	z := newTestZone(t)
	err := z.Add(dnsmsg.NewA("www.other.org", time.Minute, addr("10.0.0.1")))
	if err == nil {
		t.Fatal("Add outside zone succeeded")
	}
}

func TestSetReplacesAndRemoves(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	if err := z.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.9"))); err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("www.example.com", dnsmsg.TypeA)
	if len(res.Records) != 1 || res.Records[0].Data.(dnsmsg.AData).Addr != addr("10.0.0.9") {
		t.Fatalf("after Set: %v", res.Records)
	}
	if err := z.Set("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if res := z.Lookup("www.example.com", dnsmsg.TypeA); res.Kind != KindNXDomain {
		t.Fatalf("after empty Set: %v, want nxdomain", res.Kind)
	}
}

func TestSetMismatchedRecordFails(t *testing.T) {
	z := newTestZone(t)
	err := z.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("other.example.com", time.Minute, addr("10.0.0.1")))
	if err == nil {
		t.Fatal("Set with mismatched name succeeded")
	}
}

func TestRemoveName(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewMX("www.example.com", time.Minute, 10, "mail.example.com"))
	z.RemoveName("www.example.com")
	if res := z.Lookup("www.example.com", dnsmsg.TypeA); res.Kind != KindNXDomain {
		t.Fatalf("after RemoveName: %v", res.Kind)
	}
}

func TestSerialBumpsOnMutation(t *testing.T) {
	z := newTestZone(t)
	s0 := z.Serial()
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	if z.Serial() <= s0 {
		t.Fatal("serial did not bump on Add")
	}
	s1 := z.Serial()
	z.Remove("www.example.com", dnsmsg.TypeA)
	if z.Serial() <= s1 {
		t.Fatal("serial did not bump on Remove")
	}
	if got := z.SOA().Data.(dnsmsg.SOAData).Serial; got != z.Serial() {
		t.Fatalf("SOA serial %d != zone serial %d", got, z.Serial())
	}
}

func TestNamesSorted(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("b.example.com", time.Minute, addr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewA("a.example.com", time.Minute, addr("10.0.0.2")))
	names := z.Names()
	if len(names) != 2 || names[0] != "a.example.com" || names[1] != "b.example.com" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	got := z.Get("www.example.com", dnsmsg.TypeA)
	got[0] = dnsmsg.NewA("www.example.com", time.Minute, addr("99.9.9.9"))
	again := z.Get("www.example.com", dnsmsg.TypeA)
	if again[0].Data.(dnsmsg.AData).Addr != addr("10.0.0.1") {
		t.Fatal("Get leaked internal slice")
	}
}

func TestResultKindString(t *testing.T) {
	kinds := []ResultKind{KindAnswer, KindCNAME, KindReferral, KindNoData, KindNXDomain, ResultKind(0)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty String()", int(k))
		}
	}
}

// TestNegativeAnswerSOABoxedOncePerSerial: repeated NODATA and NXDOMAIN
// lookups share one boxed SOA payload and allocate nothing, and a
// mutation's serial bump shows in the next negative answer.
func TestNegativeAnswerSOABoxedOncePerSerial(t *testing.T) {
	z := newTestZone(t)
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.1")))
	var res Result
	for _, q := range []dnsmsg.Name{"www.example.com", "missing.example.com"} {
		z.LookupInto(q, dnsmsg.TypeNS, &res)
		allocs := testing.AllocsPerRun(50, func() { z.LookupInto(q, dnsmsg.TypeNS, &res) })
		if allocs != 0 {
			t.Errorf("negative lookup of %s: %.2f allocs/op, want 0", q, allocs)
		}
		if got := res.SOA.Data.(dnsmsg.SOAData).Serial; got != z.Serial() {
			t.Errorf("negative lookup of %s: SOA serial %d, zone serial %d", q, got, z.Serial())
		}
	}
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, addr("10.0.0.2")))
	z.LookupInto("www.example.com", dnsmsg.TypeNS, &res)
	if got := res.SOA.Data.(dnsmsg.SOAData).Serial; got != z.Serial() {
		t.Errorf("after a mutation: SOA serial %d, zone serial %d", got, z.Serial())
	}
	if res.SOA != z.SOA() {
		t.Errorf("negative answer SOA %v, zone SOA %v", res.SOA, z.SOA())
	}
}
