package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Decode errors.
var (
	ErrShortMessage  = errors.New("dnsmsg: message truncated")
	ErrBadPointer    = errors.New("dnsmsg: invalid compression pointer")
	ErrPointerLoop   = errors.New("dnsmsg: compression pointer loop")
	ErrTrailingBytes = errors.New("dnsmsg: trailing bytes after message")
	ErrUnsupportedRR = errors.New("dnsmsg: unsupported record type")
	ErrRDataLength   = errors.New("dnsmsg: rdata length mismatch")
)

// Decoder parses wire-format messages, reusing scratch buffers across
// calls. A zero Decoder is ready to use; it is not safe for concurrent use
// (pool one per goroutine with AcquireDecoder/ReleaseDecoder).
//
// Names are what makes steady-state decoding allocation-free: a resolver
// decodes the same owner names, CNAME targets, and NS hostnames millions
// of times per campaign. Every decoder interns into one process-wide
// table, bounded at tableBytes (sized for the paper's 1M-site workload),
// so each distinct name is materialized as a Go string once per process,
// and its NS and CNAME payloads, like each distinct address, are boxed
// once. A name that is a compression pointer to a label this message
// already decoded is not even looked up: the decoder remembers where each
// in-place label of the current message starts and returns the suffix of
// the name that label began.
type Decoder struct {
	buf []byte
	pos int

	scratch []byte
	memo    []memoLabel
}

// memoLabel is a label the ASCII fast path read in place from the current
// message: the name that starts at wire offset off is name[at:].
type memoLabel struct {
	off, at int
	name    Name
}

// decoderPool recycles decoders (and their scratch buffers) across queries.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// AcquireDecoder returns a pooled decoder.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns d to the pool.
func ReleaseDecoder(d *Decoder) { decoderPool.Put(d) }

// Decode parses a wire-format DNS message. Records with unsupported types
// yield ErrUnsupportedRR: the simulated Internet never emits them, so an
// appearance is a corruption worth surfacing rather than skipping.
func Decode(b []byte) (*Message, error) {
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	m := &Message{}
	if err := d.DecodeInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses b into m, reusing m's section slices (they are
// truncated and re-filled, so a long-lived caller-owned Message stops
// allocating once its slices have grown to the working-set size). On error
// m holds partially decoded content and must not be used.
func (d *Decoder) DecodeInto(b []byte, m *Message) error {
	d.buf, d.pos = b, 0
	d.memo = d.memo[:0]
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]

	id, err := d.u16()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	flags, err := d.u16()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		Opcode:             Opcode((flags >> 11) & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return fmt.Errorf("header counts: %w", err)
		}
	}

	for i := 0; i < int(counts[0]); i++ {
		q, err := d.question()
		if err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := [3]*[]RR{&m.Answers, &m.Authority, &m.Additional}
	names := [3]string{"answer", "authority", "additional"}
	for s, dst := range sections {
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := d.rr()
			if err != nil {
				return fmt.Errorf("%s %d: %w", names[s], i, err)
			}
			*dst = append(*dst, rr)
		}
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%d bytes: %w", len(d.buf)-d.pos, ErrTrailingBytes)
	}
	return nil
}

func (d *Decoder) u8() (uint8, error) {
	if d.pos+1 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

func (d *Decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *Decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, ErrShortMessage
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// name reads a possibly-compressed name starting at the current position.
func (d *Decoder) name() (Name, error) {
	n, _, err := d.nameEntry()
	return n, err
}

// nameEntry reads a name like name, also returning its table entry when
// the ASCII fast path interned it (nil for a memo hit, the root, or a name
// with non-ASCII bytes). Only fast-path names enter the memo: their bytes
// map one to one onto the wire labels.
func (d *Decoder) nameEntry() (Name, *entry, error) {
	if n, ok := d.memoized(); ok {
		return n, nil, nil
	}
	first := len(d.memo)
	next, err := d.readNameScratch(d.pos)
	if err != nil {
		return "", nil, err
	}
	d.pos = next
	n, e, err := d.intern()
	if e == nil {
		d.memo = d.memo[:first]
		return n, nil, err
	}
	// Every label of a valid name starts a valid name, its suffix: labels
	// are non-empty and only the final byte was trimmed, so at < len(n).
	for i := first; i < len(d.memo); i++ {
		d.memo[i].name = n
	}
	return n, e, nil
}

// intern turns the dotted labels in d.scratch into a Name: normalized,
// validated, then looked up in the shared table so repeated names cost no
// allocation.
func (d *Decoder) intern() (Name, *entry, error) {
	s := d.scratch
	// ParseName semantics: one trailing dot is accepted and trimmed. A
	// dotted join of wire labels ends with '.' only when the final label
	// itself does.
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	if len(s) == 0 {
		return "", nil, nil
	}

	// Fast path: pure-ASCII names are normalized in place and validated in
	// one scan. Anything with high bytes falls back to ParseName, whose
	// Unicode-aware lowercasing is the historical behaviour; it sees the
	// untrimmed join, as it would any other input.
	ascii := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			ascii = false
			break
		}
		if c >= 'A' && c <= 'Z' {
			s[i] = c + ('a' - 'A')
		}
	}
	if !ascii {
		n, err := ParseName(string(d.scratch))
		return n, nil, err
	}
	if len(s) > 253 {
		return "", nil, fmt.Errorf("parsing %q: %w", s, ErrNameTooLong)
	}
	labelLen := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if labelLen == 0 {
				return "", nil, fmt.Errorf("parsing %q: %w", s, ErrEmptyLabel)
			}
			if labelLen > 63 {
				return "", nil, fmt.Errorf("parsing %q: %w", s, ErrLabelTooLong)
			}
			labelLen = 0
			continue
		}
		labelLen++
	}
	e := sharedNames.get(s)
	return Name(e.key), e, nil
}

// memoized returns the name at the current position when it is a single
// compression pointer to a label this message's fast path decoded in
// place, advancing past the pointer. Pointers must point backwards, so
// every such label precedes the current position, and decoding from it
// again would walk the same labels and pointers to the same name.
func (d *Decoder) memoized() (Name, bool) {
	if d.pos+2 > len(d.buf) || d.buf[d.pos]&0xC0 != 0xC0 {
		return "", false
	}
	ptr := int(binary.BigEndian.Uint16(d.buf[d.pos:]) & 0x3FFF)
	// In-place labels are recorded in wire order, so the memo is sorted.
	i, j := 0, len(d.memo)
	for i < j {
		h := int(uint(i+j) >> 1)
		if d.memo[h].off < ptr {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(d.memo) || d.memo[i].off != ptr {
		return "", false
	}
	d.pos += 2
	m := d.memo[i]
	return m.name[m.at:], true
}

// readNameScratch walks labels and compression pointers from off into
// d.scratch as a dotted string, returning the offset just past the name's
// in-place representation. It appends each label read in place, before
// the first pointer, to d.memo with its position in d.scratch.
func (d *Decoder) readNameScratch(off int) (next int, err error) {
	const maxHops = 64 // more pointer hops than any legal message needs
	buf := d.buf
	d.scratch = d.scratch[:0]
	hops := 0
	next = -1
	for {
		if off >= len(buf) {
			return 0, ErrShortMessage
		}
		b := buf[off]
		switch {
		case b == 0:
			if next < 0 {
				next = off + 1
			}
			return next, nil
		case b&0xC0 == 0xC0:
			if off+2 > len(buf) {
				return 0, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(buf[off:]) & 0x3FFF)
			if next < 0 {
				next = off + 2
			}
			if ptr >= off {
				return 0, fmt.Errorf("pointer to %d at %d: %w", ptr, off, ErrBadPointer)
			}
			hops++
			if hops > maxHops {
				return 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return 0, fmt.Errorf("label tag %#x: %w", b, ErrBadPointer)
		default:
			l := int(b)
			if off+1+l > len(buf) {
				return 0, ErrShortMessage
			}
			if len(d.scratch) > 0 {
				d.scratch = append(d.scratch, '.')
			}
			if next < 0 {
				d.memo = append(d.memo, memoLabel{off: off, at: len(d.scratch)})
			}
			d.scratch = append(d.scratch, buf[off+1:off+1+l]...)
			off += 1 + l
		}
	}
}

func (d *Decoder) question() (Question, error) {
	n, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: n, Type: Type(t), Class: Class(c)}, nil
}

func (d *Decoder) rr() (RR, error) {
	name, err := d.name()
	if err != nil {
		return RR{}, err
	}
	t, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	class, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.u32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return RR{}, ErrShortMessage
	}

	var data RData
	switch Type(t) {
	case TypeA:
		raw, err := d.take(4)
		if err != nil {
			return RR{}, err
		}
		data = d.addrData(raw)
	case TypeNS:
		host, e, err := d.nameEntry()
		if err != nil {
			return RR{}, err
		}
		data = d.entryFor(host, e).rdata(boxNS, nsPayload)
	case TypeCNAME:
		target, e, err := d.nameEntry()
		if err != nil {
			return RR{}, err
		}
		data = d.entryFor(target, e).rdata(boxCNAME, cnamePayload)
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = d.name(); err != nil {
			return RR{}, err
		}
		if soa.RName, err = d.name(); err != nil {
			return RR{}, err
		}
		for _, p := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *p, err = d.u32(); err != nil {
				return RR{}, err
			}
		}
		data = soa
	case TypeMX:
		pref, err := d.u16()
		if err != nil {
			return RR{}, err
		}
		host, err := d.name()
		if err != nil {
			return RR{}, err
		}
		data = MXData{Preference: pref, Host: host}
	case TypeTXT:
		var txt TXTData
		for d.pos < end {
			l, err := d.u8()
			if err != nil {
				return RR{}, err
			}
			s, err := d.take(int(l))
			if err != nil {
				return RR{}, err
			}
			txt.Strings = append(txt.Strings, string(s))
		}
		data = txt
	case TypeAAAA:
		raw, err := d.take(16)
		if err != nil {
			return RR{}, err
		}
		data = d.addrData(raw)
	default:
		return RR{}, fmt.Errorf("type %s: %w", Type(t), ErrUnsupportedRR)
	}

	if d.pos != end {
		return RR{}, fmt.Errorf("%s at %s: %w", Type(t), name, ErrRDataLength)
	}
	// RFC 2181 §8: a TTL with the most significant bit set is treated as
	// zero. Clamping here keeps decoding canonical (decode∘encode is the
	// identity on decoded messages).
	if ttl > maxTTLSeconds {
		ttl = 0
	}
	return RR{
		Name:  name,
		Class: Class(class),
		TTL:   time.Duration(ttl) * time.Second,
		Data:  data,
	}, nil
}

// entryFor returns n's table entry: e when the decoder already has it,
// otherwise a lookup of n (copied into scratch, which no longer holds
// anything the caller needs).
func (d *Decoder) entryFor(n Name, e *entry) *entry {
	if e != nil {
		return e
	}
	d.scratch = append(d.scratch[:0], n...)
	return sharedNames.get(d.scratch)
}

// addrData returns the boxed A or AAAA payload for a raw 4- or 16-byte
// address.
func (d *Decoder) addrData(raw []byte) RData {
	d.scratch = append(append(d.scratch[:0], addrKeyTag), raw...)
	return sharedNames.get(d.scratch).rdata(boxAddr, addrPayload)
}
