package cmdutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrdps/internal/scenario"
)

// writeFile writes a test fixture or fails the test.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// paperBaseline is the library spec the success cases load.
var paperBaseline = filepath.Join("..", "..", "scenarios", "paper-baseline.json")

// parseScenario mimics a binary's full flag setup: the shared block plus
// a binary-specific -sites flag the scenario owns, then Parse+Validate.
func parseScenario(t *testing.T, args ...string) (*CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	sites := fs.Int("sites", 2000, "population")
	_ = sites
	f := RegisterCampaignFlags(fs, "retention help")
	f.ScenarioOwns("sites")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return f, f.Validate()
}

// TestScenarioFlagValidation is the fail-fast table: every bad -scenario
// combination must die at flag validation, before any world build.
func TestScenarioFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must validate; substrings joined by "&&"
	}{
		{name: "scenario-alone", args: []string{"-scenario", paperBaseline}},
		{name: "scenario-validate-only", args: []string{"-scenario", paperBaseline, "-validate-only"}},
		// Operational flags stay compatible with -scenario.
		{name: "scenario-with-ops-flags", args: []string{
			"-scenario", paperBaseline, "-workers", "2", "-metrics", "text",
			"-checkpoint-dir", "ckpt", "-checkpoint-every", "3"}},

		{name: "validate-only-without-scenario", args: []string{"-validate-only"},
			wantErr: "-validate-only needs -scenario"},
		{name: "scenario-plus-shards", args: []string{"-scenario", paperBaseline, "-shards", "4"},
			wantErr: "-scenario is incompatible with -shards"},
		// The conflict error must name both the scenario file and the flag.
		{name: "scenario-plus-owned-flag", args: []string{"-scenario", paperBaseline, "-sites", "500"},
			wantErr: "paper-baseline.json && -sites && the scenario spec owns that knob"},
		{name: "scenario-plus-retries", args: []string{"-scenario", paperBaseline, "-retries", "5"},
			wantErr: "paper-baseline.json && -retries"},
		{name: "scenario-plus-hedge", args: []string{"-scenario", paperBaseline, "-hedge=false"},
			wantErr: "-hedge"},
		{name: "missing-file", args: []string{"-scenario", "no/such/spec.json"},
			wantErr: "-scenario: && no/such/spec.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseScenario(t, tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			for _, want := range strings.Split(tc.wantErr, " && ") {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Validate() = %q, want it to contain %q", err, want)
				}
			}
		})
	}
}

// TestLoadScenarioKindCheck pins the cross-binary guard: a dynamics spec
// handed to the residual binary (or vice versa) must fail with an error
// naming both kinds.
func TestLoadScenarioKindCheck(t *testing.T) {
	f, err := parseScenario(t, "-scenario", paperBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadScenario(scenario.CampaignResidual); err == nil ||
		!strings.Contains(err.Error(), "dynamics campaign") {
		t.Errorf("LoadScenario(residual) on a dynamics spec = %v, want kind mismatch", err)
	}
	comp, err := f.LoadScenario(scenario.CampaignDynamics)
	if err != nil {
		t.Fatalf("LoadScenario(dynamics): %v", err)
	}
	if comp.Name() != "paper-baseline" {
		t.Errorf("loaded scenario %q, want paper-baseline", comp.Name())
	}
}

// TestLoadScenarioWorkersPrecedence pins the operational-override rule:
// a spec-pinned Workers lands in the flag block, but an explicit
// -workers on the command line wins (it is an ops knob; for scenarios
// that pin workers for determinism the results are on the user).
func TestLoadScenarioWorkersPrecedence(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "pinned.json")
	writeFile(t, spec, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "pinned" },
  "campaign": { "kind": "dynamics", "workers": 1, "snapWindow": 9 }
}`)

	f, err := parseScenario(t, "-scenario", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadScenario(scenario.CampaignDynamics); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 1 || f.SnapWindow != 9 {
		t.Errorf("spec-pinned workers/snapWindow not applied: %d/%d", f.Workers, f.SnapWindow)
	}

	f, err = parseScenario(t, "-scenario", spec, "-workers", "6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadScenario(scenario.CampaignDynamics); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 6 {
		t.Errorf("explicit -workers overridden by spec: got %d, want 6", f.Workers)
	}
	if f.SnapWindow != 9 {
		t.Errorf("spec snapWindow should still apply: got %d", f.SnapWindow)
	}
}

// TestLoadScenarioWithoutScenario is the no-op path every flag-driven
// run takes.
func TestLoadScenarioWithoutScenario(t *testing.T) {
	f, err := parseScenario(t)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := f.LoadScenario(scenario.CampaignDynamics)
	if err != nil || comp != nil {
		t.Errorf("LoadScenario without -scenario = (%v, %v), want (nil, nil)", comp, err)
	}
}
