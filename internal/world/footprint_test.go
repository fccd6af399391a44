package world

import (
	"runtime"
	"testing"
)

// Footprint bounds for TestWorldFootprintPerSite: the measured 5k-site
// figures plus about 10% headroom. A world of flat zones with shared NS
// payloads and lazily allocated fabric counters measured 2,722 B and
// 31.0 live objects per site; with per-type zone maps it measured
// 4,276 B and 49.8.
const (
	maxWorldBytesPerSite   = 3000
	maxWorldObjectsPerSite = 34
)

// TestWorldFootprintPerSite builds a fixed-seed 5k-site PaperConfig world
// between two full collections and gates the live heap bytes and live
// objects it holds per site. Bytes are campaignbench's
// world.heap_bytes_per_site; live objects rather than its
// world.allocs_per_site (every allocation made during the build, garbage
// included) because the race detector's instrumentation adds
// allocations but no live objects.
func TestWorldFootprintPerSite(t *testing.T) {
	const sites = 5000
	cfg := PaperConfig(sites)
	cfg.Seed = 7
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := New(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)

	bytesPerSite := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / sites
	allocsPerSite := float64(after.Mallocs-before.Mallocs) / sites
	livePerSite := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / sites
	t.Logf("%d sites: %.0f B, %.1f allocations, %.1f live objects per site", sites, bytesPerSite, allocsPerSite, livePerSite)
	if bytesPerSite > maxWorldBytesPerSite {
		t.Errorf("world holds %.0f B per site, above the %d B bound", bytesPerSite, maxWorldBytesPerSite)
	}
	if livePerSite > maxWorldObjectsPerSite {
		t.Errorf("world holds %.1f live objects per site, above the %d bound", livePerSite, maxWorldObjectsPerSite)
	}
}
