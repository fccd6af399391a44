package netsim

import (
	"fmt"
	"net/netip"
	"sort"
)

// CountersState is the export form of the fabric's accounting: the global
// send/drop totals plus every endpoint's per-PoP served-query counters.
// Campaign checkpoints carry it so a resumed run's per-endpoint
// accounting — the Fig. 7 anycast load spread — matches the uninterrupted
// run's exactly; queries made before a crash would otherwise vanish from
// counters the resumed process never replays.
type CountersState struct {
	Sends uint64 `json:"sends"`
	Drops uint64 `json:"drops"`
	// LimitDrops is the subset of Drops rejected by response rate
	// limiters. Only the cumulative count is carried: the limiters'
	// in-window budgets reset on their next window anyway, and campaign
	// checkpoints land at round boundaries at least a day apart.
	LimitDrops uint64           `json:"limitDrops,omitempty"`
	Endpoints  []EndpointCounts `json:"endpoints,omitempty"`
}

// EndpointCounts is one endpoint's per-PoP served-query counters.
type EndpointCounts struct {
	Addr    netip.Addr        `json:"addr"`
	Port    uint16            `json:"port"`
	Queries map[Region]uint64 `json:"queries"`
}

// ExportCounters snapshots the fabric's accounting. Endpoints that have
// served no queries are omitted, and the slice is sorted by address then
// port, so fabrics in equal states export equal values.
func (n *Network) ExportCounters() CountersState {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := CountersState{Sends: n.sends, Drops: n.drops, LimitDrops: n.limitDrops}
	for ep, es := range n.endpoints {
		if !es.served() {
			continue
		}
		st.Endpoints = append(st.Endpoints, EndpointCounts{Addr: ep.Addr, Port: ep.Port, Queries: es.nonzeroQueries()})
	}
	sort.Slice(st.Endpoints, func(i, j int) bool {
		a, b := st.Endpoints[i], st.Endpoints[j]
		if c := a.Addr.Compare(b.Addr); c != 0 {
			return c < 0
		}
		return a.Port < b.Port
	})
	return st
}

// RestoreCounters replaces the fabric's accounting with st, as exported
// from the interrupted run's fabric. Counters of endpoints absent from st
// are zeroed: restore means "exactly the exported state", not a merge. An
// endpoint in st with no registered handler here is an error — the two
// worlds differ, and inventing the endpoint would mask that.
func (n *Network) RestoreCounters(st CountersState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ec := range st.Endpoints {
		if _, ok := n.endpoints[Endpoint{Addr: ec.Addr, Port: ec.Port}]; !ok {
			return fmt.Errorf("netsim: restore counters: no handler registered at %s:%d", ec.Addr, ec.Port)
		}
		for r := range ec.Queries {
			if !r.valid() {
				return fmt.Errorf("netsim: restore counters: unknown region %d at %s:%d", int(r), ec.Addr, ec.Port)
			}
		}
	}
	n.sends, n.drops, n.limitDrops = st.Sends, st.Drops, st.LimitDrops
	for _, es := range n.endpoints {
		es.queries = nil
	}
	for _, ec := range st.Endpoints {
		es := n.endpoints[Endpoint{Addr: ec.Addr, Port: ec.Port}]
		for r, c := range ec.Queries {
			if es.queries == nil {
				es.queries = new([numRegions]uint64)
			}
			es.queries[r] = c
		}
	}
	return nil
}
