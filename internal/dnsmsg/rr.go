package dnsmsg

import (
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// Type is a DNS record type code.
type Type uint16

// Record types supported by the simulated Internet.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class code. Only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type returns the record type this data belongs to.
	Type() Type
	// dataString renders the presentation form of the payload.
	dataString() string
}

// AData is an IPv4 address record payload.
type AData struct{ Addr netip.Addr }

// Type implements RData.
func (AData) Type() Type           { return TypeA }
func (d AData) dataString() string { return d.Addr.String() }

// NSData names an authoritative nameserver.
type NSData struct{ Host Name }

// Type implements RData.
func (NSData) Type() Type           { return TypeNS }
func (d NSData) dataString() string { return d.Host.String() }

// CNAMEData aliases the owner name to Target.
type CNAMEData struct{ Target Name }

// Type implements RData.
func (CNAMEData) Type() Type           { return TypeCNAME }
func (d CNAMEData) dataString() string { return d.Target.String() }

// SOAData is the start-of-authority payload.
type SOAData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOAData) Type() Type { return TypeSOA }
func (d SOAData) dataString() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		d.MName, d.RName, d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// MXData is a mail-exchanger payload.
type MXData struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MXData) Type() Type           { return TypeMX }
func (d MXData) dataString() string { return fmt.Sprintf("%d %s", d.Preference, d.Host) }

// TXTData carries free-form character strings.
type TXTData struct{ Strings []string }

// Type implements RData.
func (TXTData) Type() Type { return TypeTXT }
func (d TXTData) dataString() string {
	quoted := make([]string, len(d.Strings))
	for i, s := range d.Strings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, " ")
}

// AAAAData is an IPv6 address record payload.
type AAAAData struct{ Addr netip.Addr }

// Type implements RData.
func (AAAAData) Type() Type           { return TypeAAAA }
func (d AAAAData) dataString() string { return d.Addr.String() }

var (
	_ RData = AData{}
	_ RData = NSData{}
	_ RData = CNAMEData{}
	_ RData = SOAData{}
	_ RData = MXData{}
	_ RData = TXTData{}
	_ RData = AAAAData{}
)

// RR is a resource record.
type RR struct {
	Name  Name
	Class Class
	TTL   time.Duration
	Data  RData
}

// Type returns the record's type, derived from its payload.
func (r RR) Type() Type {
	if r.Data == nil {
		return 0
	}
	return r.Data.Type()
}

// String renders the record in zone-file presentation form.
func (r RR) String() string {
	return fmt.Sprintf("%s %d IN %s %s",
		r.Name, int(r.TTL/time.Second), r.Type(), r.Data.dataString())
}

// NewA builds an A record.
func NewA(name Name, ttl time.Duration, addr netip.Addr) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: AData{Addr: addr}}
}

// NewNS builds an NS record.
func NewNS(name Name, ttl time.Duration, host Name) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: NSData{Host: host}}
}

// NSPayloads holds one boxed NS payload per nameserver host. Converting
// NSData to RData allocates, so the thousands of zones and delegations
// naming the same few hosts share one box each instead of boxing their
// own; records are values with an immutable payload, so sharing is safe.
// Fill it before use and only read it afterwards.
type NSPayloads map[Name]RData

// Add boxes the payload of each host not already held.
func (p NSPayloads) Add(hosts ...Name) {
	for _, h := range hosts {
		if _, ok := p[h]; !ok {
			p[h] = NSData{Host: h}
		}
	}
}

// NS is NewNS sharing host's boxed payload when p holds one.
func (p NSPayloads) NS(name Name, ttl time.Duration, host Name) RR {
	if data, ok := p[host]; ok {
		return RR{Name: name, Class: ClassIN, TTL: ttl, Data: data}
	}
	return NewNS(name, ttl, host)
}

// NewCNAME builds a CNAME record.
func NewCNAME(name Name, ttl time.Duration, target Name) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: CNAMEData{Target: target}}
}

// NewMX builds an MX record.
func NewMX(name Name, ttl time.Duration, pref uint16, host Name) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: MXData{Preference: pref, Host: host}}
}

// NewTXT builds a TXT record.
func NewTXT(name Name, ttl time.Duration, strs ...string) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: TXTData{Strings: strs}}
}

// NewSOA builds an SOA record with conventional timer values.
func NewSOA(name Name, ttl time.Duration, mname, rname Name, serial uint32) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: SOAData{
		MName:   mname,
		RName:   rname,
		Serial:  serial,
		Refresh: 7200,
		Retry:   3600,
		Expire:  1209600,
		Minimum: 300,
	}}
}
