// Package dnszone models authoritative DNS zone data and the RFC 1034
// lookup algorithm over it: answers, CNAME chains, delegation referrals,
// NODATA, and NXDOMAIN.
//
// Zones are mutable because the simulated world constantly rewrites them:
// website admins repoint NS records at DPS providers, providers provision
// and purge customer records, and the residual-resolution vulnerability is
// literally a zone entry that outlives its welcome.
package dnszone

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
)

// soaTTL is the TTL attached to SOA records served in authority sections;
// it doubles as the negative-caching TTL.
const soaTTL = 900 * time.Second

// ResultKind classifies the outcome of a zone lookup.
type ResultKind int

// Lookup outcomes.
const (
	// KindAnswer: records of the requested type exist at the name.
	KindAnswer ResultKind = iota + 1
	// KindCNAME: the name is an alias; Records holds the CNAME chain
	// (and, if the chain ends inside this zone, the final answer).
	KindCNAME
	// KindReferral: the name falls under a delegated child zone; Records
	// holds the NS RRset of the cut and Glue any in-zone A records for
	// the delegated nameservers.
	KindReferral
	// KindNoData: the name exists but has no records of the type.
	KindNoData
	// KindNXDomain: the name does not exist in the zone.
	KindNXDomain
)

// String implements fmt.Stringer.
func (k ResultKind) String() string {
	switch k {
	case KindAnswer:
		return "answer"
	case KindCNAME:
		return "cname"
	case KindReferral:
		return "referral"
	case KindNoData:
		return "nodata"
	case KindNXDomain:
		return "nxdomain"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Result is the outcome of Zone.Lookup.
type Result struct {
	Kind    ResultKind
	Records []dnsmsg.RR
	Glue    []dnsmsg.RR
	// SOA is the zone's SOA record, populated for NoData and NXDomain so
	// servers can fill the authority section.
	SOA dnsmsg.RR
}

// Zone holds the records of one DNS zone. It is safe for concurrent use.
type Zone struct {
	origin dnsmsg.Name

	mu     sync.RWMutex
	owners map[dnsmsg.Name]owner // every node of the zone tree, the origin included
	soa    dnsmsg.SOAData        // boxed into a record, with the current serial, on demand
	serial uint32
	// soaBox holds the last SOA payload boxed for a response, as an
	// RData. Every mutation bumps the serial, which makes it stale.
	// Lookups fill it under the read lock, so it is atomic.
	soaBox atomic.Value
}

// owner is one node of the zone tree. Its records sit in one slice,
// grouped by type: types in the order they were first added, records in
// insertion order within a type. A node with no records is an empty
// non-terminal; one with neither records nor children is pruned, except
// the origin, so a name exists in the zone exactly when it is an owner.
type owner struct {
	rrs  []dnsmsg.RR
	kids int // owners one label below this one
}

// typeSpan returns the bounds [i, j) of the records of type t in rrs; i == j
// when there are none.
func typeSpan(rrs []dnsmsg.RR, t dnsmsg.Type) (i, j int) {
	for i < len(rrs) && rrs[i].Type() != t {
		i++
	}
	for j = i; j < len(rrs) && rrs[j].Type() == t; j++ {
	}
	return i, j
}

// rrset returns the records of type t in rrs, aliasing rrs.
func rrset(rrs []dnsmsg.RR, t dnsmsg.Type) []dnsmsg.RR {
	i, j := typeSpan(rrs, t)
	return rrs[i:j]
}

// New creates a zone rooted at origin with the given SOA parameters.
func New(origin dnsmsg.Name, soa dnsmsg.SOAData) *Zone {
	return &Zone{
		origin: origin,
		owners: map[dnsmsg.Name]owner{origin: {}},
		soa:    soa,
		serial: soa.Serial,
	}
}

// Origin returns the zone's apex name.
func (z *Zone) Origin() dnsmsg.Name { return z.origin }

// Serial returns the zone's current SOA serial.
func (z *Zone) Serial() uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}

// SOA returns the zone's SOA record with the current serial.
func (z *Zone) SOA() dnsmsg.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soaLocked()
}

// soaLocked returns the SOA record with the current serial. Its payload
// is boxed once per serial, not once per negative answer.
func (z *Zone) soaLocked() dnsmsg.RR {
	rr := dnsmsg.RR{Name: z.origin, Class: dnsmsg.ClassIN, TTL: soaTTL}
	if box, ok := z.soaBox.Load().(dnsmsg.RData); ok && box.(dnsmsg.SOAData).Serial == z.serial {
		rr.Data = box
		return rr
	}
	data := z.soa
	data.Serial = z.serial
	rr.Data = data
	z.soaBox.Store(rr.Data)
	return rr
}

// contains reports whether name belongs to this zone's namespace.
func (z *Zone) contains(name dnsmsg.Name) bool {
	return name.IsSubdomainOf(z.origin)
}

// Add appends rr to the matching RRset and bumps the serial. It returns an
// error if the record's name is outside the zone.
func (z *Zone) Add(rr dnsmsg.RR) error {
	if !z.contains(rr.Name) {
		return fmt.Errorf("adding %s: outside zone %s", rr.Name, z.origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	o := z.ownerLocked(rr.Name)
	_, j := typeSpan(o.rrs, rr.Type())
	o.rrs = slices.Insert(o.rrs, j, rr)
	z.owners[rr.Name] = o
	z.serial++
	return nil
}

// MustAdd is Add but panics on error; for composition-root configuration.
func (z *Zone) MustAdd(rr dnsmsg.RR) {
	if err := z.Add(rr); err != nil {
		panic(fmt.Sprintf("dnszone: %v", err))
	}
}

// Set replaces the RRset of (name, type) with the given records (all of
// which must have that name and type) and bumps the serial.
func (z *Zone) Set(name dnsmsg.Name, t dnsmsg.Type, rrs ...dnsmsg.RR) error {
	if !z.contains(name) {
		return fmt.Errorf("setting %s: outside zone %s", name, z.origin)
	}
	for _, rr := range rrs {
		if rr.Name != name || rr.Type() != t {
			return fmt.Errorf("setting %s/%s: record %s does not match", name, t, rr)
		}
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if len(rrs) == 0 {
		z.removeLocked(name, t)
	} else {
		o := z.ownerLocked(name)
		i, j := typeSpan(o.rrs, t)
		o.rrs = slices.Replace(o.rrs, i, j, rrs...)
		z.owners[name] = o
	}
	z.serial++
	return nil
}

// Remove deletes the RRset of (name, type) and bumps the serial.
func (z *Zone) Remove(name dnsmsg.Name, t dnsmsg.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.removeLocked(name, t)
	z.serial++
}

// RemoveName deletes every RRset at name and bumps the serial.
func (z *Zone) RemoveName(name dnsmsg.Name) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if o, ok := z.owners[name]; ok && len(o.rrs) > 0 {
		o.rrs = nil
		z.owners[name] = o
		z.pruneLocked(name)
	}
	z.serial++
}

func (z *Zone) removeLocked(name dnsmsg.Name, t dnsmsg.Type) {
	o, ok := z.owners[name]
	if !ok {
		return
	}
	i, j := typeSpan(o.rrs, t)
	if i == j {
		return
	}
	if o.rrs = slices.Delete(o.rrs, i, j); len(o.rrs) == 0 {
		o.rrs = nil
	}
	z.owners[name] = o
	z.pruneLocked(name)
}

// ownerLocked returns name's node, creating it and any missing ancestors
// (empty non-terminals) first, so NXDOMAIN vs NODATA is decided
// correctly.
func (z *Zone) ownerLocked(name dnsmsg.Name) owner {
	o, ok := z.owners[name]
	if ok {
		return o
	}
	z.owners[name] = o
	for n := name; n != z.origin; {
		n = n.Parent()
		p, ok := z.owners[n]
		p.kids++
		z.owners[n] = p
		if ok {
			break
		}
	}
	return o
}

// pruneLocked deletes name if it has neither records nor children, then
// each ancestor that deletion leaves the same way, stopping at the
// origin.
func (z *Zone) pruneLocked(name dnsmsg.Name) {
	for name != z.origin {
		if o := z.owners[name]; len(o.rrs) > 0 || o.kids > 0 {
			return
		}
		delete(z.owners, name)
		name = name.Parent()
		p := z.owners[name]
		p.kids--
		z.owners[name] = p
	}
}

// Get returns a copy of the RRset at (name, type).
func (z *Zone) Get(name dnsmsg.Name, t dnsmsg.Type) []dnsmsg.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return append([]dnsmsg.RR(nil), rrset(z.owners[name].rrs, t)...)
}

// Names returns every owner name in the zone, sorted, for inspection.
func (z *Zone) Names() []dnsmsg.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnsmsg.Name, 0, len(z.owners))
	for n, o := range z.owners {
		if len(o.rrs) > 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxCNAMEChase bounds in-zone CNAME chain chasing. Chains this long do
// not occur in the simulated world; the bound replaces the per-lookup seen
// map so the hot path stays allocation-free while still terminating on
// alias cycles.
const maxCNAMEChase = 16

// Lookup runs the authoritative lookup algorithm for (qname, qtype).
// The caller must ensure qname is within the zone; Lookup panics otherwise
// because routing a foreign name here is a server bug, not a client error.
func (z *Zone) Lookup(qname dnsmsg.Name, qtype dnsmsg.Type) Result {
	var res Result
	z.LookupInto(qname, qtype, &res)
	return res
}

// LookupInto is Lookup writing into a caller-owned Result: res.Records and
// res.Glue are truncated and re-filled, so a reused Result stops
// allocating once its slices have grown to the zone's answer sizes. The
// record values are copies; they remain valid across later zone mutation.
func (z *Zone) LookupInto(qname dnsmsg.Name, qtype dnsmsg.Type, res *Result) {
	if !z.contains(qname) {
		panic(fmt.Sprintf("dnszone: lookup of %s outside zone %s", qname, z.origin))
	}
	res.Records = res.Records[:0]
	res.Glue = res.Glue[:0]
	res.SOA = dnsmsg.RR{}

	z.mu.RLock()
	defer z.mu.RUnlock()

	// One top-down walk from the apex's child to qname, one probe per
	// label. Every name on the way is a suffix of qname, so none is built.
	// A missing node has nothing at or below it, and an NS RRset below
	// the apex is a zone cut; per RFC 1034 a query exactly at the cut, for
	// NS too, is still a referral from the parent side, which is the
	// behaviour TLD servers want.
	node := z.owners[z.origin]
	below := len(qname) - len(z.origin) // qname[:below] are the labels under the apex
	if z.origin != "" && below > 0 {
		below-- // the dot before the apex
	}
	for below > 0 {
		start := strings.LastIndexByte(string(qname[:below]), '.') + 1
		n := qname[start:]
		o, ok := z.owners[n]
		if !ok {
			res.Kind = KindNXDomain
			res.SOA = z.soaLocked()
			return
		}
		if ns := rrset(o.rrs, dnsmsg.TypeNS); len(ns) > 0 {
			z.referralLocked(ns, res)
			return
		}
		node, below = o, start-1
	}

	// CNAME handling: an alias answers every type except its own.
	if cname := rrset(node.rrs, dnsmsg.TypeCNAME); len(cname) > 0 && qtype != dnsmsg.TypeCNAME {
		res.Kind = KindCNAME
		res.Records = append(res.Records, cname...)
		// Chase the chain while targets stay inside this zone. The seen
		// list lives on the stack; its capacity bounds the chase depth.
		var seenArr [maxCNAMEChase]dnsmsg.Name
		seen := append(seenArr[:0], qname)
		cur := cname[0].Data.(dnsmsg.CNAMEData).Target
		for z.contains(cur) && !nameIn(seen, cur) && len(seen) < maxCNAMEChase {
			seen = append(seen, cur)
			curRRs := z.owners[cur].rrs
			if next := rrset(curRRs, dnsmsg.TypeCNAME); len(next) > 0 {
				res.Records = append(res.Records, next...)
				cur = next[0].Data.(dnsmsg.CNAMEData).Target
				continue
			}
			res.Records = append(res.Records, rrset(curRRs, qtype)...)
			break
		}
		return
	}

	if rrs := rrset(node.rrs, qtype); len(rrs) > 0 {
		res.Kind = KindAnswer
		res.Records = append(res.Records, rrs...)
		return
	}
	res.Kind = KindNoData
	res.SOA = z.soaLocked()
}

// referralLocked fills res with a referral to the cut whose NS RRset is
// ns, adding the in-zone A records of its nameservers as glue.
func (z *Zone) referralLocked(ns []dnsmsg.RR, res *Result) {
	res.Kind = KindReferral
	res.Records = append(res.Records, ns...)
	for _, rr := range ns {
		host := rr.Data.(dnsmsg.NSData).Host
		if z.contains(host) {
			res.Glue = append(res.Glue, rrset(z.owners[host].rrs, dnsmsg.TypeA)...)
		}
	}
}

// nameIn reports whether n is in names (linear scan over a short stack
// slice, cheaper than a map for chase-depth-bounded lists).
func nameIn(names []dnsmsg.Name, n dnsmsg.Name) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}
