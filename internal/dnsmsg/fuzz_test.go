package dnsmsg

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder; it must never
// panic, every name it decodes must equal what a plain label walk of the
// wire gives, and anything it accepts must re-encode and re-decode to the
// same message (decode/encode/decode fixpoint).
func FuzzDecode(f *testing.F) {
	f.Add(MustEncode(sampleMessage()))
	f.Add(MustEncode(NewQuery(7, "www.example.com", TypeA)))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	for _, seed := range memoSeeds {
		f.Add(seed)
	}
	// Non-ASCII labels "ü" and "x..": ParseName rejects the dotted join,
	// so the decoder must too.
	f.Add(wireMessage(1, 0, 0, 0, 2, 0xC3, 0xBC, 3, 'x', '.', '.', 0, 0, 1, 0, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		if got, want := decodedNames(msg), walkNames(t, data); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded names %q, label walk gives %q", got, want)
		}
		wire, err := Encode(msg)
		if err != nil {
			// A decoded message can fail to re-encode only for payloads
			// the encoder rejects by policy (e.g. counts); it must not
			// happen for structurally valid records.
			t.Fatalf("re-encode of decoded message failed: %v\n%s", err, msg)
		}
		again, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("decode/encode/decode fixpoint violated:\nfirst:  %s\nsecond: %s", msg, again)
		}
	})
}

// FuzzParseName: arbitrary strings must either parse to a name that
// round-trips through String/ParseName, or error — never panic.
func FuzzParseName(f *testing.F) {
	f.Add("www.example.com")
	f.Add(".")
	f.Add("a..b")
	f.Add("ümlaut.example")
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			return
		}
		again, err := ParseName(n.String())
		if err != nil || again != n {
			t.Fatalf("round trip of %q: %q, %v", n, again, err)
		}
	})
}

// wireMessage is a header announcing the given section counts, followed by
// body.
func wireMessage(qd, an, ns, ar uint16, body ...byte) []byte {
	b := []byte{0x12, 0x34, 0x81, 0x00}
	for _, c := range []uint16{qd, an, ns, ar} {
		b = binary.BigEndian.AppendUint16(b, c)
	}
	return append(b, body...)
}

// memoSeeds exercise the decoder's per-message memo: pointers to names and
// to labels inside them, uppercase, dotted and non-ASCII labels. The
// question name always starts at offset 12 (0x0C).
var memoSeeds = [][]byte{
	// A dotted label "\x01z\x00.b": an answer owner points at it (0x0C),
	// the CNAME target at the label after it (0x12), and a second owner
	// into the dotted label's bytes (0x0D), which is no label start but
	// reads as the name "z".
	wireMessage(1, 3, 0, 0,
		5, 1, 'z', 0, '.', 'b', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0, 0, 1, 0, 1,
		0xC0, 0x0C, 0, 5, 0, 1, 0, 0, 0, 60, 0, 2, 0xC0, 0x12,
		0xC0, 0x12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1,
		0xC0, 0x0D, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 2),
	// An uppercase name, then a pointer to it, a CNAME target of a label
	// plus a pointer to its second label, and a pointer to that target.
	wireMessage(1, 2, 0, 0,
		3, 'W', 'W', 'W', 7, 'E', 'x', 'a', 'm', 'P', 'L', 'E', 3, 'C', 'O', 'M', 0, 0, 1, 0, 1,
		0xC0, 0x0C, 0, 5, 0, 1, 0, 0, 0, 60, 0, 6, 3, 'C', 'd', 'N', 0xC0, 0x10,
		0xC0, 0x2D, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1),
	// A non-ASCII name ("ümlaut.example"), pointed to whole and at its
	// ASCII suffix.
	wireMessage(1, 2, 0, 0,
		7, 0xC3, 0xBC, 'm', 'l', 'a', 'u', 't', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0, 0, 1, 0, 1,
		0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1,
		0xC0, 0x14, 0, 2, 0, 1, 0, 0, 0, 60, 0, 2, 0xC0, 0x0C),
}

// decodedNames lists every name in m: each question's, then per record
// its owner and the names inside its payload.
func decodedNames(m *Message) []Name {
	var out []Name
	for _, q := range m.Questions {
		out = append(out, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			out = append(out, rr.Name)
			switch d := rr.Data.(type) {
			case NSData:
				out = append(out, d.Host)
			case CNAMEData:
				out = append(out, d.Target)
			case MXData:
				out = append(out, d.Host)
			case SOAData:
				out = append(out, d.MName, d.RName)
			}
		}
	}
	return out
}

// walkNames lists the names of a message the decoder accepted, in
// decodedNames order, without the decoder: it steps over the sections by
// their fixed layout and reads each name by following labels and pointers
// to the end, then parses the dotted join with ParseName.
func walkNames(t *testing.T, wire []byte) []Name {
	name := func(off int) (Name, int) {
		var labels []string
		next := -1
		for wire[off] != 0 {
			if wire[off]&0xC0 == 0xC0 {
				if next < 0 {
					next = off + 2
				}
				off = int(binary.BigEndian.Uint16(wire[off:]) & 0x3FFF)
				continue
			}
			l := int(wire[off])
			labels = append(labels, string(wire[off+1:off+1+l]))
			off += 1 + l
		}
		if next < 0 {
			next = off + 1
		}
		n, err := ParseName(strings.Join(labels, "."))
		if err != nil {
			t.Fatalf("decoder accepted a name ParseName rejects: %v", err)
		}
		return n, next
	}
	u16 := func(off int) int { return int(binary.BigEndian.Uint16(wire[off:])) }

	var out []Name
	off := 12
	for i := 0; i < u16(4); i++ {
		n, next := name(off)
		out = append(out, n)
		off = next + 4
	}
	for i := 0; i < u16(6)+u16(8)+u16(10); i++ {
		n, next := name(off)
		out = append(out, n)
		typ, rdata := Type(u16(next)), next+10
		switch typ {
		case TypeNS, TypeCNAME:
			n, _ := name(rdata)
			out = append(out, n)
		case TypeMX:
			n, _ := name(rdata + 2)
			out = append(out, n)
		case TypeSOA:
			m, after := name(rdata)
			r, _ := name(after)
			out = append(out, m, r)
		}
		off = rdata + u16(next+8)
	}
	return out
}

// TestMemoSeedsDecode keeps the memo seeds meaningful: each must decode,
// so FuzzDecode checks their names instead of skipping them.
func TestMemoSeedsDecode(t *testing.T) {
	for i, seed := range memoSeeds {
		if _, err := Decode(seed); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}
