package netsim

import "math"

// Region identifies a coarse geographic location on the simulated Internet.
// Regions drive anycast routing (queries reach the nearest PoP) and the
// latency model. The set mirrors the vantage points and provider PoP
// locations used in the paper's experiments (Fig. 7).
type Region int

// Regions of the simulated Internet.
const (
	RegionUnknown Region = iota
	RegionOregon
	RegionVirginia
	RegionLondon
	RegionFrankfurt
	RegionSingapore
	RegionTokyo
	RegionSydney
	RegionSaoPaulo
	RegionMumbai
	RegionJohannesburg

	// numRegions bounds the Region values the fabric accepts, so
	// per-region counters fit in an array indexed by Region.
	numRegions = int(RegionJohannesburg) + 1
)

// valid reports whether r is RegionUnknown or a concrete region.
func (r Region) valid() bool { return r >= 0 && int(r) < numRegions }

// AllRegions lists every concrete region (excluding RegionUnknown).
func AllRegions() []Region {
	return []Region{
		RegionOregon, RegionVirginia, RegionLondon, RegionFrankfurt,
		RegionSingapore, RegionTokyo, RegionSydney, RegionSaoPaulo,
		RegionMumbai, RegionJohannesburg,
	}
}

// VantageRegions returns the paper's five measurement vantage points:
// Oregon, London, Sydney, Singapore, and Tokyo (Fig. 7).
func VantageRegions() []Region {
	return []Region{
		RegionOregon, RegionLondon, RegionSydney, RegionSingapore, RegionTokyo,
	}
}

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionOregon:
		return "oregon"
	case RegionVirginia:
		return "virginia"
	case RegionLondon:
		return "london"
	case RegionFrankfurt:
		return "frankfurt"
	case RegionSingapore:
		return "singapore"
	case RegionTokyo:
		return "tokyo"
	case RegionSydney:
		return "sydney"
	case RegionSaoPaulo:
		return "sao-paulo"
	case RegionMumbai:
		return "mumbai"
	case RegionJohannesburg:
		return "johannesburg"
	default:
		return "unknown"
	}
}

// regionCoord places each region on an approximate (longitude, latitude)
// plane. Distances on this plane decide anycast PoP selection and baseline
// latency; they only need to be ordinally correct, not geodetically exact.
var regionCoords = map[Region]struct{ x, y float64 }{
	RegionOregon:       {-121, 44},
	RegionVirginia:     {-78, 38},
	RegionLondon:       {0, 51},
	RegionFrankfurt:    {9, 50},
	RegionSingapore:    {104, 1},
	RegionTokyo:        {140, 36},
	RegionSydney:       {151, -34},
	RegionSaoPaulo:     {-47, -24},
	RegionMumbai:       {73, 19},
	RegionJohannesburg: {28, -26},
}

// Distance returns the planar distance between two regions in arbitrary
// units. Unknown regions are treated as maximally distant from everything,
// so they never win nearest-PoP selection.
func Distance(a, b Region) float64 {
	ca, okA := regionCoords[a]
	cb, okB := regionCoords[b]
	if !okA || !okB {
		return math.MaxFloat64
	}
	dx := ca.x - cb.x
	dy := ca.y - cb.y
	return math.Sqrt(dx*dx + dy*dy)
}

// Nearest returns the region in candidates closest to from. Ties break in
// candidate order. It returns RegionUnknown when candidates is empty.
func Nearest(from Region, candidates []Region) Region {
	best := RegionUnknown
	bestDist := math.MaxFloat64
	for _, c := range candidates {
		if d := Distance(from, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}
