package dnsmsg

import (
	"fmt"
	"hash/maphash"
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestDecodeStaysAllocFreePastManyNames: a decoder that has seen more than
// 1<<16 distinct names, far fewer than a 50k-site world holds, must still
// decode the first of them without allocating.
func TestDecodeStaysAllocFreePastManyNames(t *testing.T) {
	const distinct = 1<<16 + 1000
	names := make([]Name, distinct)
	wires := make([][]byte, distinct)
	var e Encoder
	for i := range wires {
		names[i] = Name("n" + strconv.Itoa(i) + ".cliff.example")
		wires[i] = append([]byte(nil), e.EncodeQuery(uint16(i), names[i], TypeA)...)
	}
	var d Decoder
	var m Message
	for i, w := range wires {
		if err := d.DecodeInto(w, &m); err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.DecodeInto(wires[i], &m); err != nil {
			t.Fatal(err)
		}
		if m.Question().Name != names[i] {
			t.Fatalf("name %d decoded as %q, want %q", i, m.Question().Name, names[i])
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("re-decoding the first names after %d distinct ones: %.2f allocs/op, want 0", distinct, allocs)
	}
}

// TestMemoReturnsSuffixWithoutAllocating pins the per-message memo: a
// pointer to a name, or to a label inside one, already decoded in place
// yields that name or its suffix.
func TestMemoReturnsSuffixWithoutAllocating(t *testing.T) {
	q := NewQuery(3, "www.example.com", TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Answers = []RR{NewA("www.example.com", time.Minute, netip.MustParseAddr("192.0.2.1"))}
	resp.Authority = []RR{NewNS("example.com", time.Hour, "com")}
	wire := MustEncode(resp)
	var d Decoder
	var m Message
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.DecodeInto(wire, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocs/op, want 0", allocs)
	}
	if got := m.Answers[0].Name; got != "www.example.com" {
		t.Errorf("answer owner %q", got)
	}
	if got := m.Authority[0].Name; got != "example.com" {
		t.Errorf("authority owner %q", got)
	}
	if got := m.Authority[0].Data.(NSData).Host; got != "com" {
		t.Errorf("NS host %q", got)
	}
	// The NS owner is a pointer into the question name: exactly one memo
	// label per in-place label of the question.
	if len(d.memo) != 3 {
		t.Errorf("memo holds %d labels, want 3", len(d.memo))
	}
}

// TestConcurrentDecodeSharedNames decodes overlapping name sets from many
// goroutines, each with its own decoder, while the names overflow their
// shard of the shared table, so the shard starts over mid-run. Every name
// must come back intact, and the shard must end within its bound.
func TestConcurrentDecodeSharedNames(t *testing.T) {
	const (
		workers = 8
		pad     = "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz0"
		suffix  = ".shared.example"
	)
	// Pick names that all hash into one shard until their cost is 1.5
	// times that shard's share of the bound.
	target := sharedNames.shard(maphash.String(sharedNames.seed, "seed"+suffix))
	var names []Name
	buf := []byte(pad + ".c")
	prefix := len(buf)
	for i, cost := 0, 0; cost <= shardBytes*3/2; i++ {
		buf = append(strconv.AppendInt(buf[:prefix], int64(i), 10), suffix...)
		if sharedNames.shard(maphash.Bytes(sharedNames.seed, buf)) == target {
			names = append(names, Name(buf))
			cost += len(buf) + tableEntryBytes
		}
	}
	t.Cleanup(func() {
		target.mu.Lock()
		target.reset()
		target.mu.Unlock()
	})

	// Response i asks for names[i], aliases it to names[i+1] and gives the
	// alias an address derived from i.
	wires := make([][]byte, len(names))
	for i, n := range names {
		next := names[(i+1)%len(names)]
		resp := NewResponse(NewQuery(uint16(i), n, TypeA), RCodeNoError)
		resp.Answers = []RR{
			NewCNAME(n, time.Minute, next),
			NewA(next, time.Minute, netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})),
		}
		wires[i] = MustEncode(resp)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d Decoder
			var m Message
			// Each worker starts at its own offset and covers most of the
			// set, so every name is decoded by several workers at once.
			for k := 0; k < len(names)*3/4; k++ {
				i := (w*len(names)/workers + k) % len(names)
				if err := d.DecodeInto(wires[i], &m); err != nil {
					errs <- err
					return
				}
				next := names[(i+1)%len(names)]
				addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
				if m.Question().Name != names[i] || len(m.Answers) != 2 ||
					m.Answers[0].Name != names[i] || m.Answers[0].Data != (CNAMEData{Target: next}) ||
					m.Answers[1].Name != next || m.Answers[1].Data != (AData{Addr: addr}) {
					errs <- fmt.Errorf("response %d decoded as\n%s", i, &m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	target.mu.Lock()
	defer target.mu.Unlock()
	if target.bytes > shardBytes {
		t.Fatalf("shard holds %d bytes, bound %d", target.bytes, shardBytes)
	}
	if target.count >= len(names) {
		t.Fatalf("shard holds all %d names: it never started over", target.count)
	}
}

// BenchmarkDecodeWorkingSet decodes responses round-robin over 120k
// distinct names (question, CNAME target, and NS host of 40k responses),
// the working set of a campaign rather than one repeated message.
func BenchmarkDecodeWorkingSet(b *testing.B) {
	const responses = 40000
	wires := make([][]byte, responses)
	for i := range wires {
		site := "s" + strconv.Itoa(i)
		q := NewQuery(uint16(i), Name("www."+site+".example"), TypeA)
		resp := NewResponse(q, RCodeNoError)
		target := Name(site + ".example.cdn.incapdns.net")
		resp.Answers = []RR{
			NewCNAME(q.Question().Name, 5*time.Minute, target),
			NewA(target, 30*time.Second, netip.AddrFrom4([4]byte{199, 83, byte(i >> 8), byte(i)})),
		}
		resp.Authority = []RR{NewNS(Name(site+".example"), time.Hour, Name("ns."+site+".dns-host.net"))}
		wires[i] = MustEncode(resp)
	}
	var d Decoder
	var m Message
	for _, w := range wires {
		if err := d.DecodeInto(w, &m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeInto(wires[i%responses], &m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeReusesSOABox: a negative answer's SOA is boxed once per
// distinct content at its owner, so decoding it again allocates nothing,
// while a changed serial decodes to the new contents.
func TestDecodeReusesSOABox(t *testing.T) {
	negative := func(serial uint32) []byte {
		resp := NewResponse(NewQuery(4, "www.soabox.example", TypeNS), RCodeNoError)
		resp.Authority = []RR{NewSOA("soabox.example", 15*time.Minute, "ns1.soabox.example", "hostmaster.soabox.example", serial)}
		return MustEncode(resp)
	}
	var d Decoder
	var m Message
	for _, serial := range []uint32{7, 8, 7} {
		wire := negative(serial)
		if err := d.DecodeInto(wire, &m); err != nil {
			t.Fatal(err)
		}
		if got := m.Authority[0].Data.(SOAData).Serial; got != serial {
			t.Fatalf("decoded serial %d, want %d", got, serial)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := d.DecodeInto(wire, &m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("serial %d: %.2f allocs/op decoding a repeated SOA, want 0", serial, allocs)
		}
		if want := negative(serial); string(MustEncode(&m)) != string(want) {
			t.Errorf("serial %d: re-encoded message differs", serial)
		}
	}
}

// TestInternedChild: InternedChild builds the same name as Child, and once
// the table holds it, returns the table's string without allocating.
func TestInternedChild(t *testing.T) {
	for _, c := range []struct {
		parent Name
		label  string
	}{{"interned.example", "www"}, {"interned.example", "WWW"}, {"", "tld"}} {
		if got, want := c.parent.InternedChild(c.label), c.parent.Child(c.label); got != want {
			t.Errorf("%q.InternedChild(%q) = %q, want %q", c.parent, c.label, got, want)
		}
	}
	var d Decoder
	var m Message
	if err := d.DecodeInto(MustEncode(NewQuery(5, "www.interned.example", TypeA)), &m); err != nil {
		t.Fatal(err)
	}
	var got Name
	allocs := testing.AllocsPerRun(50, func() { got = Name("interned.example").InternedChild("www") })
	if allocs != 0 {
		t.Errorf("InternedChild: %.2f allocs/op on a held name, want 0", allocs)
	}
	if unsafe.StringData(string(got)) != unsafe.StringData(string(m.Question().Name)) {
		t.Error("InternedChild returned a copy, not the decoder's interned string")
	}
}
