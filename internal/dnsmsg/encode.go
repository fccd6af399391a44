package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"
)

// maxTTLSeconds caps encoded TTLs at the RFC 2181 maximum.
const maxTTLSeconds = 1<<31 - 1

// Encoder serializes messages with RFC 1035 name compression, reusing its
// output buffer and compression table across calls. A zero Encoder is
// ready to use; it is not safe for concurrent use (pool one per goroutine
// with AcquireEncoder/ReleaseEncoder).
type Encoder struct {
	buf []byte
	// base is the index in buf where the current message starts; name
	// compression offsets are message-relative (EncodeAppend can target a
	// non-empty caller buffer).
	base int
	// offsets remembers where each (sub)name of the current message was
	// written so later occurrences can emit a compression pointer. A
	// message holds a few dozen suffixes, so a linear scan beats hashing.
	offsets []nameOffset

	// Query scratch for alloc-free query encoding.
	qmsg Message
	qs   [1]Question
}

type nameOffset struct {
	name Name
	off  int
}

// encoderPool recycles encoders (buffer + compression table) across the
// send-heavy paths: a campaign encodes millions of queries, all of which
// fit the same small buffer.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// AcquireEncoder returns a pooled encoder. Release it with ReleaseEncoder
// when the encoded bytes are no longer referenced.
func AcquireEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// ReleaseEncoder returns e to the pool.
func ReleaseEncoder(e *Encoder) { encoderPool.Put(e) }

// reset prepares the encoder for a new message.
func (e *Encoder) reset() {
	e.buf = e.buf[:0]
	e.base = 0
	e.offsets = e.offsets[:0]
}

// Encode serializes m into the encoder's internal buffer and returns it.
// The returned slice is valid only until the encoder's next call (copy it
// to retain).
func (e *Encoder) Encode(m *Message) ([]byte, error) {
	e.reset()
	return e.encode(m)
}

// EncodeAppend serializes m appended to dst (which may be nil) and returns
// the extended slice. The encoder keeps no reference to dst afterwards;
// its own internal buffer is untouched.
func (e *Encoder) EncodeAppend(dst []byte, m *Message) ([]byte, error) {
	saved := e.buf
	e.buf = dst
	e.base = len(dst)
	e.offsets = e.offsets[:0]
	out, err := e.encode(m)
	e.buf = saved
	e.base = 0
	return out, err
}

func (e *Encoder) encode(m *Message) ([]byte, error) {
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xF)

	e.u16(m.Header.ID)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authority)))
	e.u16(uint16(len(m.Additional)))

	for _, q := range m.Questions {
		e.name(q.Name)
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := e.rr(rr); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// EncodeQuery encodes a standard recursion-desired query for (name, qtype)
// without building a Message, reusing the encoder's scratch. The returned
// slice is valid only until the encoder's next call.
func (e *Encoder) EncodeQuery(id uint16, name Name, qtype Type) []byte {
	e.qs[0] = Question{Name: name, Type: qtype, Class: ClassIN}
	e.qmsg = Message{
		Header: Header{
			ID:               id,
			Opcode:           OpcodeQuery,
			RecursionDesired: true,
		},
		Questions: e.qs[:1],
	}
	// A query has no RRs, so Encode cannot fail.
	b, err := e.Encode(&e.qmsg)
	if err != nil {
		panic(fmt.Sprintf("dnsmsg: %v", err))
	}
	return b
}

// Encode serializes m to wire format in a freshly allocated buffer.
func Encode(m *Message) ([]byte, error) {
	e := AcquireEncoder()
	defer ReleaseEncoder(e)
	b, err := e.Encode(m)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// MustEncode is Encode but panics on error; for messages built from
// validated parts.
func MustEncode(m *Message) []byte {
	b, err := Encode(m)
	if err != nil {
		panic(fmt.Sprintf("dnsmsg: %v", err))
	}
	return b
}

func (e *Encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *Encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// name writes a possibly-compressed domain name.
func (e *Encoder) name(n Name) {
	for !n.IsRoot() {
		if off, ok := e.offset(n); ok {
			e.u16(0xC000 | uint16(off))
			return
		}
		if off := len(e.buf) - e.base; off <= 0x3FFF {
			e.offsets = append(e.offsets, nameOffset{n, off})
		}
		label := string(n)
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label = label[:i]
		}
		e.u8(uint8(len(label)))
		e.buf = append(e.buf, label...)
		n = n.Parent()
	}
	e.u8(0)
}

// offset returns where n was written in the current message, if it was.
func (e *Encoder) offset(n Name) (int, bool) {
	for _, o := range e.offsets {
		if o.name == n {
			return o.off, true
		}
	}
	return 0, false
}

func (e *Encoder) rr(rr RR) error {
	if rr.Data == nil {
		return fmt.Errorf("encoding %s: nil rdata", rr.Name)
	}
	e.name(rr.Name)
	e.u16(uint16(rr.Type()))
	e.u16(uint16(rr.Class))
	ttl := int64(rr.TTL / time.Second)
	if ttl < 0 {
		ttl = 0
	}
	if ttl > maxTTLSeconds {
		ttl = maxTTLSeconds
	}
	e.u32(uint32(ttl))

	// Reserve RDLENGTH and patch after writing RDATA. Compression pointers
	// inside RDATA remain valid because the target offsets precede them.
	lenAt := len(e.buf)
	e.u16(0)
	start := len(e.buf)

	switch d := rr.Data.(type) {
	case AData:
		if !d.Addr.Is4() {
			return fmt.Errorf("encoding %s: A record with non-IPv4 address %v", rr.Name, d.Addr)
		}
		a4 := d.Addr.As4()
		e.buf = append(e.buf, a4[:]...)
	case NSData:
		e.name(d.Host)
	case CNAMEData:
		e.name(d.Target)
	case SOAData:
		e.name(d.MName)
		e.name(d.RName)
		e.u32(d.Serial)
		e.u32(d.Refresh)
		e.u32(d.Retry)
		e.u32(d.Expire)
		e.u32(d.Minimum)
	case MXData:
		e.u16(d.Preference)
		e.name(d.Host)
	case TXTData:
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("encoding %s: TXT string exceeds 255 octets", rr.Name)
			}
			e.u8(uint8(len(s)))
			e.buf = append(e.buf, s...)
		}
	case AAAAData:
		if !d.Addr.Is6() || d.Addr.Is4() {
			return fmt.Errorf("encoding %s: AAAA record with non-IPv6 address %v", rr.Name, d.Addr)
		}
		a16 := d.Addr.As16()
		e.buf = append(e.buf, a16[:]...)
	default:
		return fmt.Errorf("encoding %s: unsupported rdata type %T", rr.Name, rr.Data)
	}

	rdlen := len(e.buf) - start
	if rdlen > 0xFFFF {
		return fmt.Errorf("encoding %s: rdata length %d overflows", rr.Name, rdlen)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(rdlen))
	return nil
}
