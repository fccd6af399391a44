// Package website models DPS customers: origin web servers, the sites'
// own DNS zones at a basic hosting provider, and the administrator
// operations (join, leave, pause, resume, switch, origin-IP change) whose
// aggregate dynamics the paper measures in §IV.
package website

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/dps"
	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// Record TTLs for site-owned zones. NS TTLs are long (the paper notes this
// is why stale NS records linger in resolver caches, §VI-A).
const (
	DefaultATTL     = 5 * time.Minute
	DefaultCNAMETTL = time.Hour
	DefaultNSTTL    = 24 * time.Hour
)

// Registrar changes a domain's parent-zone delegation; the world
// implements it over the TLD zones.
type Registrar interface {
	// SetDelegation replaces apex's NS records in its parent zone.
	SetDelegation(apex dnsmsg.Name, hosts []dnsmsg.Name) error
}

// Site errors.
var (
	ErrNoDPS     = errors.New("website: site has no DPS provider")
	ErrHasDPS    = errors.New("website: site already has a DPS provider")
	ErrNotPaused = errors.New("website: site is not paused")
	ErrPaused    = errors.New("website: operation invalid while paused")
)

// Infra bundles the environment a site operates in; the world builds one
// and shares it across all sites.
type Infra struct {
	Network   *netsim.Network
	Clock     simtime.Clock
	Registrar Registrar
	// Hosting is the basic DNS hosting service that serves sites' own
	// zones (a registrar-style DNS host).
	Hosting *dnsserver.Server
	// HostingNS are the hosting service's nameserver hostnames.
	HostingNS []dnsmsg.Name
	// NSPayloads, optional, holds boxed NS payloads that site zones share
	// for the hosts it covers.
	NSPayloads dnsmsg.NSPayloads
	// Providers maps keys to running DPS providers.
	Providers map[dps.ProviderKey]*dps.Provider
	// NewOriginAddr allocates a fresh origin address inside an ISP's
	// announced space.
	NewOriginAddr func() netip.Addr
}

func (in *Infra) validate() error {
	if in == nil || in.Network == nil || in.Clock == nil || in.Registrar == nil ||
		in.Hosting == nil || len(in.HostingNS) == 0 || in.NewOriginAddr == nil {
		return errors.New("website: incomplete Infra")
	}
	return nil
}

func (in *Infra) provider(key dps.ProviderKey) (*dps.Provider, error) {
	p, ok := in.Providers[key]
	if !ok {
		return nil, fmt.Errorf("website: unknown provider %q", key)
	}
	return p, nil
}

// Site is one website: an origin server plus DNS configuration. It is safe
// for concurrent use.
type Site struct {
	infra  *Infra
	domain alexa.Domain
	region netsim.Region

	mu         sync.Mutex
	origin     *httpsim.Origin
	originAddr netip.Addr
	zone       *dnszone.Zone

	provider dps.ProviderKey // "" when unprotected
	method   dps.Rerouting
	plan     dps.Plan
	paused   bool

	// basePage is the landing page without address-dependent artifacts;
	// exposure re-renders from it after origin moves.
	basePage   httpsim.Page
	exposure   Exposure
	certServer *httpsim.CertServer
}

// New creates a site: it spins up the origin at a fresh address, builds
// the site's own zone at the hosting service, and delegates the apex to
// the hosting nameservers.
func New(infra *Infra, domain alexa.Domain, region netsim.Region, page httpsim.Page) (*Site, error) {
	return NewExposed(infra, domain, region, page, Exposure{})
}

// NewExposed is New with an explicit origin-exposure profile (Table I
// vectors); see Exposure.
func NewExposed(infra *Infra, domain alexa.Domain, region netsim.Region, page httpsim.Page, exp Exposure) (*Site, error) {
	if err := infra.validate(); err != nil {
		return nil, err
	}
	s := &Site{
		infra:      infra,
		domain:     domain,
		region:     region,
		originAddr: infra.NewOriginAddr(),
		basePage:   page,
		exposure:   exp,
	}
	s.origin = httpsim.NewOrigin(httpsim.OriginConfig{Page: page})
	infra.Network.Register(netsim.Endpoint{Addr: s.originAddr, Port: netsim.PortHTTP}, region, s.origin)
	s.applyExposureLocked(page)

	s.zone = dnszone.New(domain.Apex, dnsmsg.SOAData{
		MName:  infra.HostingNS[0],
		RName:  domain.Apex.Child("hostmaster"),
		Serial: 1, Minimum: 300,
	})
	for _, h := range infra.HostingNS {
		s.zone.MustAdd(infra.NSPayloads.NS(domain.Apex, DefaultNSTTL, h))
	}
	s.pointOwnRecordsAtLocked(s.originAddr)
	s.zone.MustAdd(dnsmsg.NewMX(domain.Apex, DefaultATTL, 10, domain.Apex.Child("mail")))
	if err := s.syncExposureRecordsLocked(); err != nil {
		return nil, err
	}
	infra.Hosting.AddZone(s.zone)

	if err := infra.Registrar.SetDelegation(domain.Apex, infra.HostingNS); err != nil {
		return nil, fmt.Errorf("delegating %s: %w", domain.Apex, err)
	}
	return s, nil
}

// Domain returns the site's ranked domain.
func (s *Site) Domain() alexa.Domain { return s.domain }

// WWW returns the site's portal hostname.
func (s *Site) WWW() dnsmsg.Name { return s.domain.WWW() }

// OriginAddr returns the current origin address (ground truth for
// verifying the measurement pipeline).
func (s *Site) OriginAddr() netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.originAddr
}

// Origin returns the site's origin server.
func (s *Site) Origin() *httpsim.Origin { return s.origin }

// Page returns the landing page currently served.
func (s *Site) Page() httpsim.Page { return s.origin.Page() }

// Provider returns the current DPS provider key ("" if none), the
// rerouting method, and whether protection is paused.
func (s *Site) Provider() (key dps.ProviderKey, method dps.Rerouting, paused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.provider, s.method, s.paused
}

// Protected reports whether the site is on a DPS platform with protection
// active (status ON in Table III terms).
func (s *Site) Protected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.provider != "" && !s.paused
}

// pointOwnRecordsAtLocked sets the site-owned www and apex A records.
func (s *Site) pointOwnRecordsAtLocked(addr netip.Addr) {
	www := s.domain.WWW()
	s.zone.Remove(www, dnsmsg.TypeCNAME)
	mustZoneSet(s.zone, dnsmsg.NewA(www, DefaultATTL, addr))
	mustZoneSet(s.zone, dnsmsg.NewA(s.domain.Apex, DefaultATTL, addr))
}

func mustZoneSet(z *dnszone.Zone, rr dnsmsg.RR) {
	if err := z.Set(rr.Name, rr.Type(), rr); err != nil {
		panic(fmt.Sprintf("website: %v", err))
	}
}

// Join enrolls the site at provider with the given method and plan and
// applies the corresponding DNS change (§II-A.2).
func (s *Site) Join(key dps.ProviderKey, method dps.Rerouting, plan dps.Plan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider != "" {
		return fmt.Errorf("joining %s: %w", key, ErrHasDPS)
	}
	return s.joinLocked(key, method, plan)
}

func (s *Site) joinLocked(key dps.ProviderKey, method dps.Rerouting, plan dps.Plan) error {
	p, err := s.infra.provider(key)
	if err != nil {
		return err
	}
	asg, err := p.Enroll(s.domain.Apex, s.originAddr, method, plan)
	if err != nil {
		return fmt.Errorf("joining %s: %w", key, err)
	}
	www := s.domain.WWW()
	switch method {
	case dps.ReroutingA:
		mustZoneSet(s.zone, dnsmsg.NewA(www, DefaultATTL, asg.EdgeAddr))
		mustZoneSet(s.zone, dnsmsg.NewA(s.domain.Apex, DefaultATTL, asg.EdgeAddr))
	case dps.ReroutingCNAME:
		s.zone.Remove(www, dnsmsg.TypeA)
		mustZoneSet(s.zone, dnsmsg.NewCNAME(www, DefaultCNAMETTL, asg.CNAMETarget))
		// The apex cannot alias; providers flatten it to an edge address.
		mustZoneSet(s.zone, dnsmsg.NewA(s.domain.Apex, DefaultATTL, asg.EdgeAddr))
	case dps.ReroutingNS:
		if err := s.infra.Registrar.SetDelegation(s.domain.Apex, asg.NSHosts); err != nil {
			return fmt.Errorf("joining %s: %w", key, err)
		}
	}
	s.provider = key
	s.method = method
	s.plan = plan
	s.paused = false
	if method == dps.ReroutingNS && s.exposure.Any() {
		if err := s.syncExposureRecordsLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Leave terminates the DPS service and restores self-hosted DNS. When
// notified is false the site walks away without telling the provider
// (footnote 9).
func (s *Site) Leave(notified bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		return fmt.Errorf("leaving: %w", ErrNoDPS)
	}
	return s.leaveLocked(notified)
}

func (s *Site) leaveLocked(notified bool) error {
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return err
	}
	if err := p.Terminate(s.domain.Apex, notified); err != nil {
		return fmt.Errorf("leaving %s: %w", s.provider, err)
	}
	// Restore self-hosted records and delegation.
	s.pointOwnRecordsAtLocked(s.originAddr)
	if s.method == dps.ReroutingNS {
		if err := s.infra.Registrar.SetDelegation(s.domain.Apex, s.infra.HostingNS); err != nil {
			return fmt.Errorf("leaving %s: %w", s.provider, err)
		}
	}
	s.provider = ""
	s.method = 0
	s.paused = false
	return nil
}

// Switch moves the site from its current provider to another in one step
// (the SWITCH behaviour of Table IV). notifiedOld controls whether the old
// provider learns about it.
func (s *Site) Switch(to dps.ProviderKey, method dps.Rerouting, plan dps.Plan, notifiedOld bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		return fmt.Errorf("switching: %w", ErrNoDPS)
	}
	if s.provider == to {
		return fmt.Errorf("switching %s to itself: %w", to, ErrHasDPS)
	}
	if err := s.leaveLocked(notifiedOld); err != nil {
		return err
	}
	return s.joinLocked(to, method, plan)
}

// Pause temporarily disables protection (status ON → OFF).
func (s *Site) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		return fmt.Errorf("pausing: %w", ErrNoDPS)
	}
	if s.paused {
		return fmt.Errorf("pausing: %w", ErrPaused)
	}
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return err
	}
	if err := p.Pause(s.domain.Apex); err != nil {
		return fmt.Errorf("pausing at %s: %w", s.provider, err)
	}
	s.paused = true
	return nil
}

// Resume re-enables paused protection (OFF → ON).
func (s *Site) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		return fmt.Errorf("resuming: %w", ErrNoDPS)
	}
	if !s.paused {
		return fmt.Errorf("resuming: %w", ErrNotPaused)
	}
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return err
	}
	if err := p.Resume(s.domain.Apex); err != nil {
		return fmt.Errorf("resuming at %s: %w", s.provider, err)
	}
	s.paused = false
	return nil
}

// ChangeOriginIP moves the origin to a fresh address — the §IV-C.3 best
// practice after joining or resuming a DPS — and informs the current
// provider, if any. It returns the new address.
func (s *Site) ChangeOriginIP() (netip.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldAddr := s.originAddr
	newAddr := s.infra.NewOriginAddr()

	s.infra.Network.Deregister(netsim.Endpoint{Addr: oldAddr, Port: netsim.PortHTTP})
	s.infra.Network.Register(netsim.Endpoint{Addr: newAddr, Port: netsim.PortHTTP}, s.region, s.origin)
	if s.exposure.Certificate {
		s.infra.Network.Deregister(netsim.Endpoint{Addr: oldAddr, Port: httpsim.PortHTTPS})
	}
	s.originAddr = newAddr
	s.applyExposureLocked(s.basePage)
	if err := s.syncExposureRecordsLocked(); err != nil {
		return newAddr, err
	}

	if s.provider == "" {
		s.pointOwnRecordsAtLocked(newAddr)
		return newAddr, nil
	}
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return newAddr, err
	}
	if err := p.UpdateOrigin(s.domain.Apex, newAddr); err != nil {
		return newAddr, fmt.Errorf("changing origin IP: %w", err)
	}
	return newAddr, nil
}

// SetExternalAlias points the site's www record at an externally managed
// alias (a multi-CDN front-end like Cedexis). The site itself tracks no
// DPS provider; whatever the alias resolves to is the front-end's
// business. The apex keeps its origin A record, as such setups commonly
// do.
func (s *Site) SetExternalAlias(target dnsmsg.Name) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider != "" {
		return fmt.Errorf("aliasing to %s: %w", target, ErrHasDPS)
	}
	www := s.domain.WWW()
	s.zone.Remove(www, dnsmsg.TypeA)
	mustZoneSet(s.zone, dnsmsg.NewCNAME(www, DefaultCNAMETTL, target))
	return nil
}

// PlantDecoy implements the customer-side countermeasure of §VI-B.2: the
// site tells its current provider that its origin moved to a freshly
// allocated — and never served — address. A residual record created by a
// subsequent Leave or Switch then points at the decoy instead of the real
// origin. Returns the decoy address.
func (s *Site) PlantDecoy() (netip.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		return netip.Addr{}, fmt.Errorf("planting decoy: %w", ErrNoDPS)
	}
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return netip.Addr{}, err
	}
	decoy := s.infra.NewOriginAddr()
	if err := p.UpdateOrigin(s.domain.Apex, decoy); err != nil {
		return netip.Addr{}, fmt.Errorf("planting decoy: %w", err)
	}
	return decoy, nil
}

// RestrictToProviderEdges configures the origin to answer only the current
// provider's edges (the hardening that defeats direct HTML verification,
// §IV-C.3). With no provider it clears the restriction.
func (s *Site) RestrictToProviderEdges() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provider == "" {
		s.origin.SetAllowedClients(nil)
		return nil
	}
	p, err := s.infra.provider(s.provider)
	if err != nil {
		return err
	}
	s.origin.SetAllowedClients(p.EdgeAddrs())
	return nil
}

// Zone exposes the site's own zone for inspection in tests.
func (s *Site) Zone() *dnszone.Zone { return s.zone }

// Plan returns the site's DPS plan (meaningful only while enrolled).
func (s *Site) Plan() dps.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}
