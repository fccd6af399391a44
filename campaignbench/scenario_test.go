package main

import (
	"testing"

	"rrdps/internal/world"
)

// The workloads' specs must compile to the campaigns the README names,
// with the run's seed and each campaign kind's churn-boost policy.
func TestWorkloadScenarios(t *testing.T) {
	for name, tc := range map[string]struct {
		sites       int
		boost       float64
		boostsPause bool
		warmup      int
	}{
		"dynamics-paper":  {50000, 1, true, 0},
		"residual-weekly": {20000, 8, false, 28},
		"follow-serve":    {10000, 8, true, 0},
	} {
		wl, ok := workloads[name]
		if !ok || wl.spec != name {
			t.Fatalf("workload %s: spec %q", name, wl.spec)
		}
		scn, err := loadScenario(wl.spec, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		paper := world.PaperConfig(tc.sites)
		pause := paper.PauseRate
		if tc.boostsPause {
			pause *= tc.boost
		}
		cfg := scn.World
		if cfg.Seed != 42 || cfg.NumSites != tc.sites || cfg.LeaveRate != paper.LeaveRate*tc.boost ||
			cfg.PauseRate != pause || scn.WarmupDays != tc.warmup {
			t.Errorf("%s: seed %d, %d sites, leave %v, pause %v, warm-up %d", name,
				cfg.Seed, cfg.NumSites, cfg.LeaveRate, cfg.PauseRate, scn.WarmupDays)
		}
	}
}
