package experiment

import (
	"fmt"
	"math/rand"
	"net/netip"

	"rrdps/internal/attack"
	"rrdps/internal/netsim"
)

// AttackLoad configures a reflection flood that runs alongside the
// residual campaign's weekly scans: a botnet spoofs the scanned
// provider's nameserver addresses as the source of queries to open
// resolvers on the fabric, which amplify junk back onto those
// nameservers (§I's "indirect" DDoS path, the Nawrocki/Kopp
// amplification ecosystem). Combined with world.Config.NSRateLimit the
// junk competes with the scanner for the nameservers' response budget —
// the "does recall survive an attacked fleet" experiment.
//
// The flood runs serially before each scan week's direct scan, so its
// budget consumption is deterministic; the world clock is frozen across
// both, so flood and scan share one rate-limit window. Scenarios pairing
// AttackLoad with a rate limit should pin Workers to 1: which scanner
// queries land in the leftover budget depends on arrival order.
type AttackLoad struct {
	// Bots is the botnet size (source addresses spread over regions).
	Bots int
	// RequestsPerBot is how many spoofed queries each bot sends per
	// attacked scan week.
	RequestsPerBot int
	// Amplification is how many response units one query reflects onto
	// the victim (DNS amplification factors of 30-50x are typical).
	Amplification int
	// Resolvers is how many open reflectors are stood up on the fabric.
	Resolvers int
	// StartWeek is the first scan week (1-based) the flood runs; zero
	// means every scan week.
	StartWeek int
}

// validate panics on nonsensical configuration, mirroring
// world.Config.validate: this is programmer input.
func (a AttackLoad) validate() {
	if a.Bots <= 0 || a.RequestsPerBot <= 0 || a.Amplification <= 0 || a.Resolvers <= 0 {
		panic(fmt.Sprintf("experiment: AttackLoad requires positive Bots, RequestsPerBot, Amplification, and Resolvers (got %+v)", a))
	}
	if a.StartWeek < 0 {
		panic(fmt.Sprintf("experiment: AttackLoad.StartWeek = %d", a.StartWeek))
	}
}

// attackEnv is the flood infrastructure built once at campaign setup:
// the reflectors and the botnet. Building it draws addresses from the
// world's allocator, so a campaign with an AttackLoad is a different
// (but equally deterministic) universe than one without.
type attackEnv struct {
	resolvers []*attack.OpenResolver
	bots      *attack.Botnet
}

// setupAttack stands up the reflectors and botnet. Seeded from the world
// seed so the bot-region assignment is reproducible per world.
func (en *ResidualEngine) setupAttack() {
	a := en.cfg.Attack
	if a == nil {
		return
	}
	a.validate()
	w := en.w
	rng := rand.New(rand.NewSource(w.Config().Seed + 31))
	regions := netsim.AllRegions()
	env := &attackEnv{}
	for i := 0; i < a.Resolvers; i++ {
		env.resolvers = append(env.resolvers, attack.NewOpenResolver(
			w.Net, w.Alloc.NextAddr(), regions[rng.Intn(len(regions))], a.Amplification, netsim.PortDNS))
	}
	env.bots = attack.NewBotnet(a.Bots, w.Alloc.NextAddr, rng)
	en.attack = env
}

// floodWeek runs one scan week's reflection flood against the victims
// (the week's discovered nameserver addresses). Each spoofed query makes
// a reflector deliver Amplification junk payloads to the victim's DNS
// port; when the victim endpoint carries a response rate limit, the junk
// drains the budget the scanner is about to compete for.
func (en *ResidualEngine) floodWeek(week int, victims []netip.Addr) {
	a := en.cfg.Attack
	if a == nil || len(victims) == 0 {
		return
	}
	start := a.StartWeek
	if start < 1 {
		start = 1
	}
	if week < start {
		return
	}
	query := []byte("ANY? large.zone.example")
	sent := 0
	for i := 0; i < en.attack.bots.Size(); i++ {
		_, region := en.attack.bots.Bot(i)
		for q := 0; q < a.RequestsPerBot; q++ {
			resolver := en.attack.resolvers[(i+q)%len(en.attack.resolvers)]
			victim := victims[sent%len(victims)]
			sent++
			ep := netsim.Endpoint{Addr: resolver.Addr(), Port: netsim.PortDNS}
			// The bot spoofs the victim nameserver as its source; the
			// fabric carries source addresses verbatim (no BCP38 here).
			_, _ = en.w.Net.Send(victim, region, ep, query)
		}
	}
	if en.obs != nil {
		en.obs.Counter("attack.spoofed_queries").Add(uint64(sent))
	}
}
