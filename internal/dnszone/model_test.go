package dnszone

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

// refZone is a reference model of Zone: per-owner maps of RRsets plus an
// explicit set of existing nodes rebuilt from scratch after every
// removal, with the RFC 1034 lookup spelled out step by step. It trades
// speed and memory for being obviously right, so TestZoneMatchesModel can
// hold Zone's flat owner table to it.
type refZone struct {
	origin dnsmsg.Name
	rrsets map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR
	nodes  map[dnsmsg.Name]bool // every name with records or with records below it
	soa    dnsmsg.SOAData
	serial uint32
}

func newRefZone(origin dnsmsg.Name, soa dnsmsg.SOAData) *refZone {
	r := &refZone{origin: origin, soa: soa, serial: soa.Serial}
	r.rrsets = make(map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR)
	r.rebuildNodes()
	return r
}

func (r *refZone) rebuildNodes() {
	r.nodes = map[dnsmsg.Name]bool{r.origin: true}
	for name := range r.rrsets {
		for n := name; n != r.origin; n = n.Parent() {
			r.nodes[n] = true
		}
	}
}

func (r *refZone) soaRR() dnsmsg.RR {
	data := r.soa
	data.Serial = r.serial
	return dnsmsg.RR{Name: r.origin, Class: dnsmsg.ClassIN, TTL: soaTTL, Data: data}
}

func (r *refZone) add(rr dnsmsg.RR) {
	sets := r.rrsets[rr.Name]
	if sets == nil {
		sets = make(map[dnsmsg.Type][]dnsmsg.RR)
		r.rrsets[rr.Name] = sets
	}
	sets[rr.Type()] = append(sets[rr.Type()], rr)
	r.rebuildNodes()
	r.serial++
}

func (r *refZone) set(name dnsmsg.Name, t dnsmsg.Type, rrs []dnsmsg.RR) {
	r.drop(name, t)
	if len(rrs) > 0 {
		if r.rrsets[name] == nil {
			r.rrsets[name] = make(map[dnsmsg.Type][]dnsmsg.RR)
		}
		r.rrsets[name][t] = append([]dnsmsg.RR(nil), rrs...)
	}
	r.rebuildNodes()
	r.serial++
}

func (r *refZone) remove(name dnsmsg.Name, t dnsmsg.Type) {
	r.drop(name, t)
	r.rebuildNodes()
	r.serial++
}

func (r *refZone) removeName(name dnsmsg.Name) {
	delete(r.rrsets, name)
	r.rebuildNodes()
	r.serial++
}

func (r *refZone) drop(name dnsmsg.Name, t dnsmsg.Type) {
	if sets := r.rrsets[name]; sets != nil {
		delete(sets, t)
		if len(sets) == 0 {
			delete(r.rrsets, name)
		}
	}
}

func (r *refZone) get(name dnsmsg.Name, t dnsmsg.Type) []dnsmsg.RR {
	return append([]dnsmsg.RR(nil), r.rrsets[name][t]...)
}

func (r *refZone) names() []dnsmsg.Name {
	var out []dnsmsg.Name
	for n := range r.rrsets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refZone) contains(n dnsmsg.Name) bool { return n.IsSubdomainOf(r.origin) }

func (r *refZone) lookup(qname dnsmsg.Name, qtype dnsmsg.Type) Result {
	// The closest delegation to the apex on the path down to qname,
	// qname included, the apex excluded.
	var path []dnsmsg.Name
	for n := qname; n != r.origin; n = n.Parent() {
		path = append(path, n)
	}
	for i := len(path) - 1; i >= 0; i-- {
		ns := r.rrsets[path[i]][dnsmsg.TypeNS]
		if len(ns) == 0 {
			continue
		}
		res := Result{Kind: KindReferral, Records: append([]dnsmsg.RR(nil), ns...)}
		for _, rr := range ns {
			if host := rr.Data.(dnsmsg.NSData).Host; r.contains(host) {
				res.Glue = append(res.Glue, r.rrsets[host][dnsmsg.TypeA]...)
			}
		}
		return res
	}
	sets := r.rrsets[qname]
	if cname := sets[dnsmsg.TypeCNAME]; len(cname) > 0 && qtype != dnsmsg.TypeCNAME {
		res := Result{Kind: KindCNAME, Records: append([]dnsmsg.RR(nil), cname...)}
		seen := map[dnsmsg.Name]bool{qname: true}
		cur := cname[0].Data.(dnsmsg.CNAMEData).Target
		for r.contains(cur) && !seen[cur] && len(seen) < maxCNAMEChase {
			seen[cur] = true
			if next := r.rrsets[cur][dnsmsg.TypeCNAME]; len(next) > 0 {
				res.Records = append(res.Records, next...)
				cur = next[0].Data.(dnsmsg.CNAMEData).Target
				continue
			}
			res.Records = append(res.Records, r.rrsets[cur][qtype]...)
			break
		}
		return res
	}
	if rrs := sets[qtype]; len(rrs) > 0 {
		return Result{Kind: KindAnswer, Records: append([]dnsmsg.RR(nil), rrs...)}
	}
	if r.nodes[qname] {
		return Result{Kind: KindNoData, SOA: r.soaRR()}
	}
	return Result{Kind: KindNXDomain, SOA: r.soaRR()}
}

// text renders the model the way Zone.WriteText renders a zone.
func (r *refZone) text() string {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	fmt.Fprintf(w, "$ORIGIN %s.\n%s\n", r.origin, presentRR(r.soaRR(), r.origin))
	for _, name := range r.names() {
		for _, t := range []dnsmsg.Type{
			dnsmsg.TypeNS, dnsmsg.TypeA, dnsmsg.TypeAAAA,
			dnsmsg.TypeCNAME, dnsmsg.TypeMX, dnsmsg.TypeTXT,
		} {
			for _, rr := range r.rrsets[name][t] {
				fmt.Fprintf(w, "%s\n", presentRR(rr, r.origin))
			}
		}
	}
	w.Flush()
	return b.String()
}

// modelTypes are the record types the model test writes and queries.
var modelTypes = []dnsmsg.Type{
	dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeCNAME,
	dnsmsg.TypeMX, dnsmsg.TypeTXT, dnsmsg.TypeAAAA,
}

// modelUniverse is the namespace the random sequences write to, relative
// to the origin ("@" is the origin): a delegation ("sub") with glue
// below its cut and in the parent, CNAME chain links, and a four-label
// branch whose middle names are empty non-terminals.
var modelUniverse = []string{
	"@", "www", "alias", "alias2", "target", "mail",
	"sub", "ns1.sub", "deep.sub", "ns",
	"d", "c.d", "b.c.d", "a.b.c.d", "x.c.d",
}

// modelQueries adds names no sequence writes: below the deep branch,
// below the cut, and beside everything.
var modelQueries = append(append([]string(nil), modelUniverse...), "q.a.b.c.d", "z.deep.sub", "missing")

// TestZoneMatchesModel drives Zone and refZone through the same random
// Add/Set/Remove/RemoveName sequences and requires, after every
// operation, equal Lookup results for every (name, type), equal Get,
// Names and WriteText, and equal serials. It runs under a hostname
// origin and under the root, whose names have no apex suffix.
func TestZoneMatchesModel(t *testing.T) {
	for _, origin := range []dnsmsg.Name{"example.com", ""} {
		t.Run("origin="+origin.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4242))
			for seq := 0; seq < 150; seq++ {
				runModelSequence(t, rng, origin, seq)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func runModelSequence(t *testing.T, rng *rand.Rand, origin dnsmsg.Name, seq int) {
	abs := func(rel string) dnsmsg.Name {
		switch {
		case rel == "@":
			return origin
		case origin == "":
			return dnsmsg.Name(rel)
		default:
			return dnsmsg.Name(rel + "." + string(origin))
		}
	}
	pick := func(rels ...string) dnsmsg.Name { return abs(rels[rng.Intn(len(rels))]) }
	record := func(name dnsmsg.Name, typ dnsmsg.Type) dnsmsg.RR {
		ttl := time.Duration(1+rng.Intn(3)) * time.Minute
		switch typ {
		case dnsmsg.TypeA:
			return dnsmsg.NewA(name, ttl, netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(6))}))
		case dnsmsg.TypeAAAA:
			return dnsmsg.RR{Name: name, Class: dnsmsg.ClassIN, TTL: ttl,
				Data: dnsmsg.AAAAData{Addr: netip.AddrFrom16([16]byte{15: byte(rng.Intn(4))})}}
		case dnsmsg.TypeNS:
			host := pick("ns1.sub", "ns", "a.b.c.d", "missing")
			if rng.Intn(4) == 0 {
				host = "ns.elsewhere.net"
			}
			return dnsmsg.NewNS(name, ttl, host)
		case dnsmsg.TypeCNAME:
			target := pick("alias", "alias2", "target", "www", "a.b.c.d", "deep.sub", "missing")
			if rng.Intn(5) == 0 {
				target = "cdn.elsewhere.net"
			}
			return dnsmsg.NewCNAME(name, ttl, target)
		case dnsmsg.TypeMX:
			return dnsmsg.NewMX(name, ttl, uint16(rng.Intn(3)*10), pick("mail", "www"))
		default:
			return dnsmsg.NewTXT(name, ttl, fmt.Sprintf("v=%d", rng.Intn(4)))
		}
	}

	soa := dnsmsg.SOAData{MName: abs("ns"), RName: abs("hostmaster"), Serial: 7, Minimum: 300}
	z, ref := New(origin, soa), newRefZone(origin, soa)
	var res Result // reused across lookups, as servers do
	ops := 10 + rng.Intn(40)
	for i := 0; i < ops; i++ {
		name := abs(modelUniverse[rng.Intn(len(modelUniverse))])
		typ := modelTypes[rng.Intn(len(modelTypes))]
		var op string
		switch p := rng.Intn(20); {
		case p < 9:
			rr := record(name, typ)
			op = "Add " + rr.String()
			z.MustAdd(rr)
			ref.add(rr)
		case p < 14:
			rrs := make([]dnsmsg.RR, rng.Intn(4))
			for k := range rrs {
				rrs[k] = record(name, typ)
			}
			op = fmt.Sprintf("Set %s/%s %v", name, typ, rrs)
			if err := z.Set(name, typ, rrs...); err != nil {
				t.Fatalf("seq %d op %d: %s: %v", seq, i, op, err)
			}
			ref.set(name, typ, rrs)
		case p < 17:
			op = fmt.Sprintf("Remove %s/%s", name, typ)
			z.Remove(name, typ)
			ref.remove(name, typ)
		default:
			op = "RemoveName " + name.String()
			z.RemoveName(name)
			ref.removeName(name)
		}

		where := fmt.Sprintf("seq %d op %d (%s)", seq, i, op)
		if got, want := z.Serial(), ref.serial; got != want {
			t.Fatalf("%s: Serial = %d, want %d", where, got, want)
		}
		if got, want := z.Names(), ref.names(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Names = %v, want %v", where, got, want)
		}
		var text strings.Builder
		if err := z.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if want := ref.text(); text.String() != want {
			t.Fatalf("%s: WriteText =\n%s\nwant\n%s", where, text.String(), want)
		}
		for _, rel := range modelQueries {
			q := abs(rel)
			for _, qt := range modelTypes {
				if got, want := z.Get(q, qt), ref.get(q, qt); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Get(%s, %s) = %v, want %v", where, q, qt, got, want)
				}
				z.LookupInto(q, qt, &res)
				want := ref.lookup(q, qt)
				if res.Kind != want.Kind || !sameRRs(res.Records, want.Records) ||
					!sameRRs(res.Glue, want.Glue) || !reflect.DeepEqual(res.SOA, want.SOA) {
					t.Fatalf("%s: Lookup(%s, %s) = %+v, want %+v", where, q, qt, res, want)
				}
			}
		}
	}
}

// sameRRs compares record lists in order, treating nil and empty alike.
func sameRRs(a, b []dnsmsg.RR) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
