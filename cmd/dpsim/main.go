// Command dpsim runs a generalized dining-philosophers simulation from the
// command line: pick a topology, an algorithm, a scheduler and a seed, and it
// reports meals, waiting times, fairness and (optionally) the full event
// trace. A single run (-trials 1, the default) is one Engine.Run, so -trace
// works at any -workers value. With -trials > 1 the per-trial results stream
// in as workers finish; the printed aggregates are bit-identical for any
// -workers value.
//
// Examples:
//
//	dpsim -topology ring -n 5 -algorithm GDP2 -steps 100000
//	dpsim -topology figure1a -algorithm LR1 -scheduler adversary -trials 50
//	dpsim -topology theta -algorithm LR2 -scheduler adversary -trace
//	dpsim -topology ring -algorithm GDP1 -trials 20 -json
//	dpsim -topology ring -algorithm LR1 -faults delayed-grants:0.3,4   # fork grants
//	                                         # linger in flight for up to 4 steps
//
// -symmetry marks the engine for orbit-quotient exploration; it only affects
// exhaustive surfaces (and the configuration fingerprint), never simulation
// results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/dining"
	"repro/internal/cli"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	cfg := cli.Config{Topology: "ring", N: 5, Algorithm: "GDP1", Scheduler: "random", Steps: 100_000, Trials: 1, Seed: 1}
	cfg.Register(flag.CommandLine, cli.FlagTopology|cli.FlagAlgorithm|cli.FlagScheduler|
		cli.FlagSteps|cli.FlagTrials|cli.FlagSeed|cli.FlagWorkers|cli.FlagM|cli.FlagJSON|cli.FlagFaults|cli.FlagSymmetry)
	showTrace := flag.Bool("trace", false, "print the event trace of a single run (requires -trials 1, text output)")
	flag.Parse()
	ctx := context.Background()

	var log *trace.Log
	var extra []dining.Option
	if *showTrace {
		if cfg.Trials != 1 {
			cli.Fatal("dpsim", fmt.Errorf("-trace requires -trials 1 (a trace is one run's event stream), got -trials %d", cfg.Trials))
		}
		if cfg.JSON {
			cli.Fatal("dpsim", fmt.Errorf("-trace and -json are mutually exclusive"))
		}
		log = trace.NewLog(0)
		extra = append(extra, dining.WithRecorder(log))
	}
	eng, err := cfg.Engine(extra...)
	if err != nil {
		cli.Fatal("dpsim", err)
	}
	topo := eng.Topology()

	if !cfg.JSON {
		fmt.Printf("%s | algorithm %s | scheduler %s | %d step budget", topo, eng.Algorithm(), eng.Scheduler(), cfg.Steps)
		if f := eng.Faults(); f != "" {
			fmt.Printf(" | faults %s", f)
		}
		fmt.Println()
	}

	if cfg.Trials == 1 && !cfg.JSON {
		// A single run's report (and -trace's final state) comes from Run,
		// the engine's one fresh-world run, which keeps the final world.
		res, err := eng.Run(ctx)
		if err != nil {
			cli.Fatal("dpsim", err)
		}
		fmt.Printf("meals: %d (per philosopher %v)\n", res.TotalEats, res.EatsBy)
		fmt.Printf("first meal at step %d, mean wait %.1f steps, max scheduling gap %d\n",
			res.FirstEatStep, res.MeanWaitSteps, res.MaxScheduleGap)
		if len(res.Starved) > 0 {
			fmt.Printf("starved philosophers: %v\n", res.Starved)
		}
		if log != nil {
			fmt.Println("--- per-philosopher activity ---")
			fmt.Print(trace.Summarize(log, topo.NumPhilosophers()))
			fmt.Println("--- final state ---")
			fmt.Print(trace.RenderState(res.Final))
		}
		return
	}

	// Stream the trials as workers finish; keep them indexed so that every
	// printed aggregate is independent of completion order.
	byTrial := make([]dining.TrialResult, cfg.Trials)
	for tr, err := range eng.Trials(ctx, cfg.Trials) {
		if err != nil {
			cli.Fatal("dpsim", err)
		}
		byTrial[tr.Trial] = tr
		if !cfg.JSON {
			fmt.Printf("trial %3d: meals %d, mean wait %.1f steps\n", tr.Trial, tr.TotalEats, tr.MeanWaitSteps)
		}
	}

	if cfg.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(byTrial); err != nil {
			cli.Fatal("dpsim", err)
		}
		return
	}

	var progressRuns int
	var mealsAgg, waitAgg, jainAgg stats.Running
	for _, tr := range byTrial {
		if tr.TotalEats > 0 {
			progressRuns++
		}
		mealsAgg.Add(float64(tr.TotalEats))
		waitAgg.Add(tr.MeanWaitSteps)
		jainAgg.Add(stats.JainIndex(tr.EatsBy))
	}
	fmt.Printf("runs with progress: %d/%d\n", progressRuns, cfg.Trials)
	fmt.Printf("meals per run:      %s\n", mealsAgg.String())
	fmt.Printf("mean wait steps:    %s\n", waitAgg.String())
	fmt.Printf("Jain fairness:      %s\n", jainAgg.String())
}
