// Command dpbench runs the reproduction experiment suite (dining.Experiments,
// experiments E-F1 … E-RT) and renders the results as a terminal report, as a
// Markdown document, or as JSON.
//
// Usage:
//
//	dpbench -quick                  # fast pass (a few seconds)
//	dpbench                         # full pass (tens of seconds)
//	dpbench -experiment E-T3        # a single experiment
//	dpbench -markdown -o experiments.md
//	dpbench -quick -json            # machine-readable tables
//	dpbench -quick -symmetry        # orbit-quotient model checking (same
//	                                # verdict tables, per-orbit state counts)
//	dpbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/dining"
	"repro/internal/cli"
)

func main() {
	cfg := cli.Config{Seed: 20010903} // the paper's arXiv date
	cfg.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagJSON|cli.FlagProfile|cli.FlagFaults|cli.FlagSymmetry)
	var (
		quick      = flag.Bool("quick", false, "reduced trial counts")
		experiment = flag.String("experiment", "", "run a single experiment by ID (for example E-T3)")
		markdown   = flag.Bool("markdown", false, "emit Markdown instead of aligned text")
		outPath    = flag.String("o", "", "write the report to a file instead of stdout")
	)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		cli.Fatal("dpbench", err)
	}
	if *markdown && cfg.JSON {
		cli.Fatal("dpbench", fmt.Errorf("-markdown and -json are mutually exclusive"))
	}
	stopProfiling, err := cfg.StartProfiling()
	if err != nil {
		cli.Fatal("dpbench", err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			cli.Fatal("dpbench", err)
		}
	}()

	ecfg := dining.ExperimentConfig{Quick: *quick, Seed: cfg.Seed, Workers: cfg.Workers, Faults: cfg.Faults, Symmetry: cfg.Symmetry}

	var tables []*dining.Table
	start := time.Now()
	if *experiment != "" {
		table, err := dining.RunByID(*experiment, ecfg)
		if err != nil {
			cli.Fatal("dpbench", err)
		}
		tables = append(tables, table)
	} else {
		all, err := dining.RunAll(ecfg)
		if err != nil {
			cli.Fatal("dpbench", err)
		}
		tables = all
	}
	elapsed := time.Since(start)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			cli.Fatal("dpbench", err)
		}
		defer f.Close()
		out = f
	}

	switch {
	case cfg.JSON:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			cli.Fatal("dpbench", err)
		}
	case *markdown:
		intro := fmt.Sprintf("# Experiment results\n\nGenerated by `dpbench` in %s (quick=%t, seed=%d).\n", elapsed.Round(time.Second), *quick, cfg.Seed)
		fmt.Fprint(out, dining.RenderMarkdown(intro, tables))
	default:
		for _, t := range tables {
			fmt.Fprintln(out, t.Text())
		}
		fmt.Fprintf(out, "completed %d experiment(s) in %s\n", len(tables), elapsed.Round(time.Millisecond))
	}
}
