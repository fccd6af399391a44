// Command dpsmeasure runs the paper's §IV usage-dynamics campaign over a
// simulated Internet: daily A/CNAME/NS collection, Table III status
// classification, Table IV behaviour detection, and the Table V
// JOIN/RESUME HTML verification. It prints the Fig. 2, Fig. 3, Fig. 5,
// Fig. 6, and Table V artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rrdps/internal/cmdutil"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/shardrun"
	"rrdps/internal/world"
)

func main() {
	sites := flag.Int("sites", 2000, "number of websites (the paper uses 1M; scale down)")
	days := flag.Int("days", 42, "measurement days (the paper runs six weeks)")
	seed := flag.Int64("seed", 1815, "world seed")
	boost := flag.Float64("churn-boost", 1, "multiply all behaviour hazards (small worlds need >1 for dense figures)")
	cf := cmdutil.RegisterCampaignFlags(flag.CommandLine,
		"snapshot-store retention in days: 0 = streaming default (2), <0 = keep every day replayable, >=2 = that many days")
	cf.ScenarioOwns("sites", "days", "seed", "churn-boost")
	flag.Parse()
	if *sites <= 0 || *days <= 0 || *boost <= 0 {
		fmt.Fprintln(os.Stderr, "dpsmeasure: -sites, -days, and -churn-boost must be positive")
		os.Exit(2)
	}
	if err := cf.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(2)
	}
	comp, err := cf.LoadScenario(scenario.CampaignDynamics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(2)
	}
	if cf.ValidateOnly {
		fmt.Printf("scenario %s ok (sha256:%s)\n", comp.Name(), comp.Hash())
		return
	}
	policy := cf.Policy()

	cfg := world.PaperConfig(*sites)
	cfg.Seed = *seed
	cfg.JoinRate *= *boost
	cfg.LeaveRate *= *boost
	cfg.PauseRate *= *boost
	cfg.SwitchRate *= *boost

	var scn *experiment.ScenarioInfo
	if comp != nil {
		// The spec owns the experiment shape; mirror it into the locals
		// the announcement lines and campaign construction read. The
		// provenance line goes to stderr so a scenario that reproduces the
		// default run keeps stdout byte-identical to it.
		cfg = comp.World
		policy = comp.Policy
		*sites, *days, *seed = cfg.NumSites, comp.Days, cfg.Seed
		scn = comp.Info
		fmt.Fprintf(os.Stderr, "dpsmeasure: scenario %s (sha256:%s)\n", comp.Name(), comp.Hash())
	}

	if cf.Resume {
		fmt.Fprintf(os.Stderr, "dpsmeasure: resuming campaign state from %s\n", cf.CheckpointDir)
	}

	reg := obs.NewRegistry()
	stopProfiles, err := cmdutil.StartProfiles(cf.PprofPrefix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}

	var res experiment.DynamicsResult
	if cf.Shards > 1 {
		// Shard-parallel path: every shard builds its own world replica,
		// so there is no single world to announce up front.
		fmt.Printf("running %d-day campaign over %d sites in %d shards (seed %d)...\n\n",
			*days, *sites, cf.Shards, *seed)
		start := time.Now()
		run := shardrun.Dynamics{
			Config:          cfg,
			Days:            *days,
			Shards:          cf.Shards,
			ShardWorkers:    cf.ShardWorkers,
			Workers:         cf.Workers,
			Policy:          &policy,
			Obs:             reg,
			SnapWindow:      cf.SnapWindow,
			CheckpointDir:   cf.CheckpointDir,
			CheckpointEvery: cf.CheckpointEvery,
			Resume:          cf.Resume,
		}.Run()
		res = run.Merged
		fmt.Printf("sharded campaign done in %v\n\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("building world: %d sites (seed %d)...\n", *sites, *seed)
		start := time.Now()
		w := world.New(cfg)
		campaign := experiment.Dynamics{
			World:           w,
			Days:            *days,
			Workers:         cf.Workers,
			Policy:          &policy,
			Obs:             reg,
			SnapWindow:      cf.SnapWindow,
			CheckpointDir:   cf.CheckpointDir,
			CheckpointEvery: cf.CheckpointEvery,
			Resume:          cf.Resume,
			Scenario:        scn,
		}
		if cf.Follow {
			// Daemon mode has no horizon: -days is ignored, the engine
			// appends until SIGTERM or -max-days.
			campaign.Days = 0
			fmt.Printf("world ready in %v; following (SIGTERM to drain)...\n\n", time.Since(start).Round(time.Millisecond))
			en := campaign.NewEngine()
			res = cmdutil.Follow(cf, "dpsmeasure", func() {
				day := en.NextDay()
				en.AppendDay()
				fmt.Println(report.DynamicsProgress(day, en.WorldDay(), en.LastBreakdown(), en.DayCounts(day)))
			}, func() experiment.DynamicsResult {
				en.Checkpoint()
				return en.Result()
			})
			en.Close()
		} else {
			fmt.Printf("world ready in %v; running %d-day campaign...\n\n", time.Since(start).Round(time.Millisecond), *days)
			res = campaign.Run()
		}
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(res.String())
	fmt.Printf("retry policy: %s\n", policy)
	fmt.Println(report.FaultSummary(res.Stats, res.Sidelined))
	fmt.Println(report.Figure2(res))
	fmt.Println(report.Figure3(res))
	fmt.Println(report.Figure5(res))
	fmt.Println(report.Figure6(res))
	fmt.Println(report.TableV(res))

	if err := cmdutil.EmitMetrics(reg, cf.Metrics, cf.MetricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}
}
