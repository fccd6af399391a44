// Package netsim implements the message fabric of the simulated Internet.
//
// The fabric is a request/response (UDP-RPC-like) transport keyed by
// (IP address, port). Services — authoritative nameservers, web origins,
// CDN edges — register Handlers at endpoints; clients Send opaque payloads
// and receive opaque replies. Anycast endpoints register one handler per
// point of presence (PoP) and the fabric routes each request to the PoP
// nearest to the sender's region, mirroring how Cloudflare's anycast DNS
// spreads load across PoPs (paper §V-A.1, Fig. 7).
//
// The fabric also provides failure injection — legacy shared-RNG packet
// loss, per-endpoint blackholing, and the deterministic FaultConfig plan
// (seeded uniform loss, burst windows, per-endpoint flakiness, reply
// corruption) — plus per-endpoint accounting used by the Fig. 7
// experiment.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// Well-known ports on the simulated Internet.
const (
	PortDNS  = 53
	PortHTTP = 80
)

// Errors returned by Network.Send.
var (
	// ErrUnreachable indicates no handler is registered at the endpoint.
	ErrUnreachable = errors.New("netsim: destination unreachable")
	// ErrTimeout indicates the request or response was dropped (injected
	// loss or blackholed endpoint).
	ErrTimeout = errors.New("netsim: request timed out")
)

// Endpoint identifies a service attachment point.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Request is what a Handler receives.
type Request struct {
	// From is the sender's address (may be a vantage point or resolver).
	From netip.Addr
	// FromRegion is the sender's region, used for anycast routing and
	// available to handlers (e.g., for geo-aware answers).
	FromRegion Region
	// To is the destination address the sender targeted. For anycast
	// endpoints every PoP sees the same To.
	To Endpoint
	// PoPRegion is the region of the PoP that received the request. For
	// unicast endpoints it is the handler's registration region.
	PoPRegion Region
	// Payload is the opaque request body (e.g., a DNS wire-format message).
	Payload []byte
	// Time is the fabric's simulation time when the request was delivered.
	Time time.Time
}

// Handler processes a request and returns a response payload.
//
// Returning a nil payload with a nil error models a server that silently
// ignores the query (the paper observes Cloudflare nameservers ignoring
// queries for unknown zones); the fabric converts it to ErrTimeout on the
// client side.
type Handler interface {
	ServeNet(req Request) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req Request) ([]byte, error)

// ServeNet implements Handler.
func (f HandlerFunc) ServeNet(req Request) ([]byte, error) { return f(req) }

var _ Handler = HandlerFunc(nil)

// clockface is the minimal clock dependency of the fabric.
type clockface interface{ Now() time.Time }

// popInstance is one registered instance behind an endpoint.
type popInstance struct {
	region  Region
	handler Handler
}

// endpointState holds all instances and per-endpoint failure state.
type endpointState struct {
	instances  []popInstance
	blackholed bool
	limit      *limitState // response rate limiter, nil when none
	// queries holds the per-PoP delivered query counts, indexed by
	// Region. It stays nil until the first delivery: most endpoints are
	// site origins, which few requests ever reach.
	queries *[numRegions]uint64
}

// count records one query delivered to the endpoint's PoP in region.
func (st *endpointState) count(region Region) {
	if st.queries == nil {
		st.queries = new([numRegions]uint64)
	}
	st.queries[region]++
}

// Config parametrizes a Network.
type Config struct {
	// Clock supplies request timestamps. Required.
	Clock clockface
	// LossRate is the probability in [0,1) that any single request/response
	// exchange is dropped. Zero disables random loss.
	LossRate float64
	// Rand drives loss decisions. Required when LossRate > 0.
	Rand *rand.Rand
}

// Network is the simulated message fabric. It is safe for concurrent use.
type Network struct {
	clock    clockface
	lossRate float64

	mu         sync.Mutex
	rng        *rand.Rand
	endpoints  map[Endpoint]*endpointState
	sends      uint64
	drops      uint64
	limitDrops uint64
	faults     FaultConfig
	faultStats FaultStats
}

// New creates a Network. It panics if cfg.Clock is nil or if LossRate > 0
// without a Rand, because both are programming errors in the composition
// root rather than runtime conditions.
func New(cfg Config) *Network {
	if cfg.Clock == nil {
		panic("netsim: Config.Clock is required")
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		if cfg.LossRate != 0 {
			panic(fmt.Sprintf("netsim: LossRate %v outside [0,1)", cfg.LossRate))
		}
	}
	if cfg.LossRate > 0 && cfg.Rand == nil {
		panic("netsim: Config.Rand is required when LossRate > 0")
	}
	return &Network{
		clock:     cfg.Clock,
		lossRate:  cfg.LossRate,
		rng:       cfg.Rand,
		endpoints: make(map[Endpoint]*endpointState),
	}
}

// Register attaches a unicast handler at ep located in region. Registering
// a second unicast handler at the same endpoint replaces the first (the
// address was reassigned), mirroring real IP churn.
func (n *Network) Register(ep Endpoint, region Region, h Handler) {
	if h == nil {
		panic("netsim: Register with nil handler")
	}
	if !region.valid() {
		panic(fmt.Sprintf("netsim: Register in unknown region %d", int(region)))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	st.instances = []popInstance{{region: region, handler: h}}
}

// RegisterAnycast adds an anycast PoP instance for ep in region. Multiple
// PoPs may share the endpoint; requests route to the nearest PoP. Adding a
// PoP in a region that already has one replaces that PoP's handler.
func (n *Network) RegisterAnycast(ep Endpoint, region Region, h Handler) {
	if h == nil {
		panic("netsim: RegisterAnycast with nil handler")
	}
	if !region.valid() {
		panic(fmt.Sprintf("netsim: RegisterAnycast in unknown region %d", int(region)))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	for i := range st.instances {
		if st.instances[i].region == region {
			st.instances[i].handler = h
			return
		}
	}
	st.instances = append(st.instances, popInstance{region: region, handler: h})
}

// Deregister removes every handler at ep. Subsequent sends fail with
// ErrUnreachable. Accounting for the endpoint is retained.
func (n *Network) Deregister(ep Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.endpoints[ep]; ok {
		st.instances = nil
	}
}

// SetBlackholed marks ep as silently dropping all traffic (or restores it).
// Blackholed endpoints model hosts knocked offline, e.g. by a DDoS flood.
func (n *Network) SetBlackholed(ep Endpoint, blackholed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	st.blackholed = blackholed
}

func (n *Network) ensureEndpointLocked(ep Endpoint) *endpointState {
	st, ok := n.endpoints[ep]
	if !ok {
		st = &endpointState{}
		n.endpoints[ep] = st
	}
	return st
}

// Send delivers payload from (from, fromRegion) to the endpoint and returns
// the handler's response. Anycast endpoints route to the nearest PoP.
func (n *Network) Send(from netip.Addr, fromRegion Region, to Endpoint, payload []byte) ([]byte, error) {
	resp, _, err := n.Exchange(from, fromRegion, to, payload, nil)
	return resp, err
}

// Reachable reports whether at least one handler is registered at ep and it
// is not blackholed.
func (n *Network) Reachable(ep Endpoint) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.endpoints[ep]
	return ok && len(st.instances) > 0 && !st.blackholed
}

// QueryCount returns how many requests the endpoint's PoP in region has
// served. For unicast endpoints, use the registration region.
func (n *Network) QueryCount(ep Endpoint, region Region) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.endpoints[ep]
	if !ok || st.queries == nil || !region.valid() {
		return 0
	}
	return st.queries[region]
}

// QueryCounts returns a copy of the per-PoP query counters for ep,
// omitting regions whose PoP has served none.
func (n *Network) QueryCounts(ep Endpoint) map[Region]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.endpoints[ep]
	if !ok {
		return nil
	}
	return st.nonzeroQueries()
}

// served reports whether any query has been delivered to the endpoint.
func (st *endpointState) served() bool {
	return st.queries != nil && *st.queries != [numRegions]uint64{}
}

// nonzeroQueries returns the per-PoP counters as a map holding only the
// regions that served queries.
func (st *endpointState) nonzeroQueries() map[Region]uint64 {
	out := make(map[Region]uint64)
	if st.queries == nil {
		return out
	}
	for r, c := range st.queries {
		if c != 0 {
			out[Region(r)] = c
		}
	}
	return out
}

// Stats reports fabric-wide counters.
func (n *Network) Stats() (sends, drops uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sends, n.drops
}
