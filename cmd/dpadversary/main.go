// Command dpadversary reproduces the adversarial walks of the paper: it runs
// each algorithm on the Section 3 topology (Figure 1a — six philosophers,
// three forks) against the fair livelock adversary, prints periodic state
// snapshots in the figures' arrow notation, and summarises who managed to
// eat. With -props (or -json) it additionally runs the property checker on
// the same instance through Engine.Check, printing the machine-checked
// verdicts and — for failing exhaustive properties — the replayable
// counterexample trace, the exhaustive twin of the walk it just showed.
//
// Usage:
//
//	dpadversary                         # Section 3 walk on figure1a
//	dpadversary -topology theta -n 1    # Theorem 2 walk on the theta graph
//	dpadversary -steps 30000 -snapshots 6
//	dpadversary -topology theta -props starvation-trap     # walk + verdicts
//	dpadversary -topology theta -json                      # verdicts as JSON
//	dpadversary -topology theta -json -symmetry            # orbit-quotient checks
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"

	"repro/dining"
	"repro/internal/cli"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// walkAlgorithms are the four algorithms the walk and the check section run.
var walkAlgorithms = []string{dining.LR1, dining.LR2, dining.GDP1, dining.GDP2}

func main() {
	cfg := cli.Config{Topology: "figure1a", Steps: 30_000, Seed: 3}
	cfg.Register(flag.CommandLine, cli.FlagTopology|cli.FlagSteps|cli.FlagSeed|cli.FlagProps|cli.FlagJSON|cli.FlagWorkers|cli.FlagShards|cli.FlagFaults|cli.FlagSymmetry)
	var (
		window    = flag.Int64("window", sched.DefaultBoundedWindow, "fairness window of the adversary (0 = the default)")
		snapshots = flag.Int64("snapshots", 6, "number of state snapshots to print for the first algorithm")
		maxStates = flag.Int("max-states", 500_000, "state cap of the -props property checks (0 = default)")
	)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		cli.Fatal("dpadversary", err)
	}
	// Resolve the window the adversary runs with, so the header reports it:
	// a negative window is refused as dining.New refuses one, and 0 selects
	// the bounded-fair default.
	if *window < 0 {
		cli.Fatal("dpadversary", fmt.Errorf("-window must be >= 0 (0 selects the default %d), got %d", sched.DefaultBoundedWindow, *window))
	}
	if *window == 0 {
		*window = sched.DefaultBoundedWindow
	}

	topo, err := cfg.BuildTopology()
	if err != nil {
		cli.Fatal("dpadversary", err)
	}

	if cfg.JSON {
		// Machine-readable mode: only the property verdicts, in the stable
		// PropertyResult wire format.
		results := checkProperties(topo, &cfg, *maxStates)
		out, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
		fmt.Println(string(out))
		return
	}

	// The walk injects the -faults model into each algorithm's program, so
	// the printed snapshots show crashed philosophers and lost grants exactly
	// as the engine-based property checks see them.
	var faults dining.FaultModel
	if cfg.Faults != "" {
		faults, err = dining.NewFaultFromSpec(cfg.Faults)
		if err == nil {
			err = faults.Validate(topo)
		}
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
	}

	fmt.Printf("Adversarial walk on %s (fairness window %d, %d steps", topo, *window, cfg.Steps)
	if faults != nil {
		fmt.Printf(", faults %s", faults.Spec())
	}
	fmt.Print(")\n\n")

	for i, name := range walkAlgorithms {
		prog, err := dining.NewAlgorithm(name, dining.AlgorithmOptions{})
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
		if faults != nil {
			prog = faults.Wrap(topo, prog)
		}
		adversary, err := dining.NewScheduler(dining.Adversary, dining.SchedulerConfig{FairnessWindow: *window})
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
		monitor := sched.NewFairnessMonitor(adversary)

		var walk trace.StateWalk
		var snapshotEvery int64
		if i == 0 && *snapshots > 0 {
			snapshotEvery = cfg.Steps / *snapshots
		}

		w := sim.NewWorld(topo)
		prog.Init(w)
		rng := prng.New(cfg.Seed)
		stepsDone := int64(0)
		for stepsDone < cfg.Steps {
			chunk := cfg.Steps - stepsDone
			if snapshotEvery > 0 && chunk > snapshotEvery {
				chunk = snapshotEvery
			}
			if _, err := sim.RunWorld(w, prog, monitor, rng, sim.RunOptions{MaxSteps: chunk}); err != nil {
				cli.Fatal("dpadversary", err)
			}
			stepsDone += chunk
			if snapshotEvery > 0 {
				walk.Snapshot(fmt.Sprintf("State after %d steps", stepsDone), w)
			}
		}

		fmt.Printf("=== %s ===\n", name)
		fmt.Printf("meals: %d  (per philosopher: %v)\n", w.TotalEats, w.EatsBy)
		fmt.Printf("fairness: %s\n", monitor.Report())
		switch {
		case w.TotalEats == 0:
			fmt.Println("verdict: the fair adversary prevented every meal (the paper's negative result)")
		default:
			fmt.Println("verdict: progress despite the adversary")
		}
		if walk.Len() > 0 {
			fmt.Println()
			fmt.Print(walk.String())
		}
		fmt.Println()
	}

	// Also report the guest books for LR2 on the theta graph, the observation
	// closing the proof of Theorem 2.
	if topo.SatisfiesTheorem2() {
		prog, _ := dining.NewAlgorithm(dining.LR2, dining.AlgorithmOptions{})
		adversary, _ := dining.NewScheduler(dining.Adversary, dining.SchedulerConfig{FairnessWindow: *window})
		w := sim.NewWorld(topo)
		prog.Init(w)
		if _, err := sim.RunWorld(w, prog, adversary, prng.New(cfg.Seed), sim.RunOptions{MaxSteps: cfg.Steps}); err == nil && w.TotalEats == 0 {
			empty := true
			for f := 0; f < topo.NumForks(); f++ {
				if !w.GuestBookEmpty(dining.ForkID(f)) {
					empty = false
				}
			}
			fmt.Printf("LR2 guest books empty after the livelocked run: %v (the proof of Theorem 2 predicts they stay empty forever)\n", empty)
		}
	}

	if len(cfg.PropertyNames()) > 0 {
		fmt.Println()
		fmt.Println("Exhaustive property verdicts (Engine.Check):")
		for _, r := range checkProperties(topo, &cfg, *maxStates) {
			verdict := "PASS"
			if !r.Passed {
				verdict = "FAIL"
			}
			if r.Truncated {
				verdict += "*"
			}
			fmt.Printf("%-6s %-22s %-6s %s\n", r.Algorithm, r.Property, verdict, r.Detail)
			if r.Counterexample != nil {
				fmt.Print(r.Counterexample)
			}
		}
	}
}

// checkProperties runs the -props selection for every walk algorithm on topo
// and returns the flattened results.
func checkProperties(topo *dining.Topology, cfg *cli.Config, maxStates int) []dining.PropertyResult {
	var all []dining.PropertyResult
	for _, name := range walkAlgorithms {
		opts := []dining.Option{
			dining.WithMaxStates(maxStates),
			dining.WithWorkers(cfg.Workers),
			dining.WithShards(cfg.Shards),
		}
		if cfg.Faults != "" {
			opts = append(opts, dining.WithFaults(cfg.Faults))
		}
		if cfg.Symmetry {
			opts = append(opts, dining.WithSymmetry())
		}
		eng, err := dining.New(topo, name, opts...)
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
		results, err := eng.CheckAll(context.Background(), cfg.PropertyNames()...)
		if err != nil {
			cli.Fatal("dpadversary", err)
		}
		all = append(all, results...)
	}
	return all
}
