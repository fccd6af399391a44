package dnsmsg

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuestionAccessor(t *testing.T) {
	m := NewQuery(9, "www.example.com", TypeA)
	q := m.Question()
	if q.Name != "www.example.com" || q.Type != TypeA || q.Class != ClassIN {
		t.Fatalf("Question() = %+v", q)
	}
	empty := &Message{}
	if got := empty.Question(); got != (Question{}) {
		t.Fatalf("empty Question() = %+v", got)
	}
}

func TestAnswersOfType(t *testing.T) {
	m := &Message{Answers: []RR{
		NewCNAME("a.com", time.Minute, "b.com"),
		NewA("b.com", time.Minute, netip.MustParseAddr("10.0.0.1")),
		NewA("b.com", time.Minute, netip.MustParseAddr("10.0.0.2")),
	}}
	if got := len(m.AnswersOfType(TypeA)); got != 2 {
		t.Errorf("A answers = %d, want 2", got)
	}
	if got := len(m.AnswersOfType(TypeCNAME)); got != 1 {
		t.Errorf("CNAME answers = %d, want 1", got)
	}
	if got := m.AnswersOfType(TypeNS); got != nil {
		t.Errorf("NS answers = %v, want nil", got)
	}
}

func TestNewResponseEchoesQuery(t *testing.T) {
	q := NewQuery(77, "x.org", TypeNS)
	r := NewResponse(q, RCodeNXDomain)
	if !r.Header.Response || r.Header.ID != 77 || r.Header.RCode != RCodeNXDomain {
		t.Fatalf("header = %+v", r.Header)
	}
	if !r.Header.RecursionDesired {
		t.Error("RD bit not echoed")
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Fatalf("questions = %+v", r.Questions)
	}
}

func TestStringForms(t *testing.T) {
	rr := NewA("example.com", 90*time.Second, netip.MustParseAddr("10.1.2.3"))
	if got := rr.String(); got != "example.com 90 IN A 10.1.2.3" {
		t.Errorf("RR.String() = %q", got)
	}
	for typ, want := range map[Type]string{
		TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME", TypeSOA: "SOA",
		TypeMX: "MX", TypeTXT: "TXT", TypeAAAA: "AAAA", Type(99): "TYPE99",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", uint16(typ), got, want)
		}
	}
	for rc, want := range map[RCode]string{
		RCodeNoError: "NOERROR", RCodeServFail: "SERVFAIL", RCodeNXDomain: "NXDOMAIN",
		RCodeRefused: "REFUSED", RCode(15): "RCODE15",
	} {
		if got := rc.String(); got != want {
			t.Errorf("RCode(%d).String() = %q, want %q", uint8(rc), got, want)
		}
	}
	msg := sampleMessage()
	s := msg.String()
	for _, frag := range []string{"response", "NOERROR", "www.example.com", "an:", "ns:", "ad:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Message.String() missing %q in:\n%s", frag, s)
		}
	}
}

func TestRRTypeNilData(t *testing.T) {
	if got := (RR{}).Type(); got != 0 {
		t.Fatalf("zero RR Type() = %v, want 0", got)
	}
}

func TestNSPayloadsShareBoxes(t *testing.T) {
	p := make(NSPayloads)
	p.Add("ns1.webhost.net", "ns2.webhost.net", "ns1.webhost.net")
	if len(p) != 2 {
		t.Fatalf("NSPayloads holds %d hosts, want 2", len(p))
	}
	for _, host := range []Name{"ns1.webhost.net", "ns3.elsewhere.org"} {
		got := p.NS("example.com", time.Hour, host)
		if want := NewNS("example.com", time.Hour, host); !reflect.DeepEqual(got, want) {
			t.Errorf("NS(%s) = %v, want %v", host, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = p.NS("example.com", time.Hour, "ns2.webhost.net")
	}); allocs != 0 {
		t.Errorf("NS for a held host allocates %.0f times, want 0", allocs)
	}
	var none NSPayloads
	if got := none.NS("example.com", time.Hour, "ns1.webhost.net"); got.Data.(NSData).Host != "ns1.webhost.net" {
		t.Errorf("nil NSPayloads NS = %v", got)
	}
}
