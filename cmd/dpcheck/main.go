// Command dpcheck runs the property checker on the paper's minimal instances
// and prints the verdict table: for each (topology, algorithm, protected set)
// it answers whether a fair adversary can starve the protected philosophers
// forever — the machine-checked counterpart of Theorems 1–4.
//
// Usage:
//
//	dpcheck             # the standard verdict table
//	dpcheck -full       # also the larger (slower) instances
//	dpcheck -topology theta -n 1 -algorithm LR2            # one custom instance
//	dpcheck -topology ring -n 3 -props progress,lockout-freedom
//	dpcheck -topology theta -algorithm LR2 -json           # stable JSON verdicts
//	dpcheck -workers 8 -shards 8                           # sharded parallel exploration
//	dpcheck -topology ring -n 5 -symmetry                  # orbit-quotient exploration
//	                                                       # (same verdicts, per-orbit state counts)
//	dpcheck -topology ring -n 3 -faults delayed-grants:0.5,2 \
//	        -props progress-under-faults                   # perturbed MDP with in-flight grants
//	dpcheck -full -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Exit status: in table mode dpcheck exits non-zero when any verdict
// contradicts the paper's expectation; in custom-instance mode it exits
// non-zero when any requested property fails — so CI can gate on either.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/dining"
	"repro/internal/cli"
)

type checkCase struct {
	label     string
	topo      *dining.Topology
	algorithm string
	opts      dining.AlgorithmOptions
	protected []dining.PhilID
	expect    string // the paper's claim, for the table
	wantTrap  bool   // whether the paper predicts a starvation trap
	slow      bool
}

func main() {
	cfg := cli.Config{Algorithm: "GDP1"}
	cfg.Register(flag.CommandLine, cli.FlagAlgorithm|cli.FlagWorkers|cli.FlagShards|cli.FlagJSON|cli.FlagProps|cli.FlagProfile|cli.FlagFaults|cli.FlagSymmetry)
	var (
		full      = flag.Bool("full", false, "include the larger, slower instances")
		topology  = flag.String("topology", "", "check a single custom topology instead of the standard table")
		n         = flag.Int("n", 0, "topology size parameter for -topology")
		maxStates = flag.Int("max-states", 0, "state cap (0 = default)")
	)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		cli.Fatal("dpcheck", err)
	}
	stopProfiling, err := cfg.StartProfiling()
	if err != nil {
		cli.Fatal("dpcheck", err)
	}
	ctx := context.Background()

	var code int
	switch {
	case *topology != "":
		code = checkCustom(ctx, &cfg, *topology, *n, *maxStates)
	case len(cfg.PropertyNames()) > 0:
		cli.Fatal("dpcheck", errors.New("-props requires -topology: the standard table always checks starvation-trap"))
	case cfg.Faults != "":
		cli.Fatal("dpcheck", errors.New("-faults requires -topology: the standard table pins the paper's fault-free expectations"))
	default:
		code = checkTable(ctx, &cfg, *full, *maxStates)
	}
	if err := stopProfiling(); err != nil {
		cli.Fatal("dpcheck", err)
	}
	os.Exit(code)
}

// checkCustom checks the -props selection (default: the exhaustive
// built-ins) on one custom instance and returns the process exit code:
// non-zero when any requested property fails.
func checkCustom(ctx context.Context, cfg *cli.Config, topology string, n, maxStates int) int {
	topo, err := dining.NewTopology(topology, n)
	if err != nil {
		cli.Fatal("dpcheck", err)
	}
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
	eng, err := dining.New(topo, cfg.Algorithm, opts...)
	if err != nil {
		cli.Fatal("dpcheck", err)
	}
	results, err := eng.CheckAll(ctx, cfg.PropertyNames()...)
	if err != nil {
		cli.Fatal("dpcheck", err)
	}
	failed := 0
	for _, r := range results {
		if !r.Passed {
			failed++
		}
	}
	if cfg.JSON {
		emitJSON(results)
	} else {
		if f := eng.Faults(); f != "" {
			fmt.Printf("%s on %s under faults %s\n\n", eng.Algorithm(), topo, f)
		} else {
			fmt.Printf("%s on %s\n\n", eng.Algorithm(), topo)
		}
		fmt.Printf("%-22s %-8s %s\n", "property", "verdict", "detail")
		for _, r := range results {
			verdict := "PASS"
			if !r.Passed {
				verdict = "FAIL"
			}
			if r.Truncated {
				verdict += "*"
			}
			fmt.Printf("%-22s %-8s %s\n", r.Property, verdict, r.Detail)
		}
		for _, r := range results {
			if r.Counterexample != nil {
				fmt.Println()
				fmt.Print(r.Counterexample)
			}
		}
		if failed > 0 {
			fmt.Printf("\n%d propert(y/ies) failed\n", failed)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// checkTable checks the standard paper table through the starvation-trap
// property and returns the exit code: non-zero when any verdict contradicts
// the paper's expectation.
func checkTable(ctx context.Context, cfg *cli.Config, full bool, maxStates int) int {
	ring3 := []dining.PhilID{0, 1, 2}
	single := []dining.PhilID{0}
	theorem1Minimal := dining.Theorem1Minimal()
	theta := dining.Theorem2Minimal()
	cases := []checkCase{
		{"classic ring, global progress", dining.Ring(3), dining.LR1, dining.AlgorithmOptions{}, nil, "no trap (Lehmann-Rabin 1981)", false, false},
		{"Theorem 1 minimal, ring protected", theorem1Minimal, dining.LR1, dining.AlgorithmOptions{}, ring3, "trap exists (Theorem 1)", true, false},
		{"ring + pendant, ring protected", dining.RingWithPendant(3), dining.LR1, dining.AlgorithmOptions{}, ring3, "trap exists (Theorem 1)", true, false},
		{"ring + pendant, ring protected", dining.RingWithPendant(3), dining.LR2, dining.AlgorithmOptions{}, ring3, "no trap (Theorem 1 construction fails for LR2)", false, true},
		{"theta graph, global progress", theta, dining.LR2, dining.AlgorithmOptions{}, nil, "trap exists (Theorem 2)", true, false},
		{"theta graph, global progress", theta, dining.GDP1, dining.AlgorithmOptions{}, nil, "no trap (Theorem 3)", false, false},
		{"Theorem 1 minimal, global progress", theorem1Minimal, dining.GDP1, dining.AlgorithmOptions{}, nil, "no trap (Theorem 3)", false, false},
		{"theta graph, philosopher 0 protected", theta, dining.GDP1, dining.AlgorithmOptions{}, single, "trap exists (GDP1 is not lockout-free)", true, false},
		{"theta graph, philosopher 0 protected", theta, dining.GDP2, dining.AlgorithmOptions{}, single, "no trap (Theorem 4)", false, false},
		{"classic ring, philosopher 0 protected", dining.Ring(3), dining.LR2, dining.AlgorithmOptions{}, single, "no trap (LR2 lockout-free on rings)", false, false},
		{"classic ring, philosopher 0 protected", dining.Ring(3), dining.GDP2, dining.AlgorithmOptions{}, single, "TRAP — see dpbench E-T4 (courtesy gap)", true, false},
		{"classic ring, philosopher 0 protected", dining.Ring(3), dining.GDP2, dining.AlgorithmOptions{CourtesyOnBothForks: true}, single, "no trap (strengthened courtesy)", false, false},
	}

	var all []dining.PropertyResult
	mismatches := 0
	if !cfg.JSON {
		fmt.Printf("%-42s %-6s %-11s %-9s %-10s %s\n", "instance", "algo", "states", "time", "verdict", "paper / expectation")
	}
	for _, c := range cases {
		if c.slow && !full {
			continue
		}
		opts := []dining.Option{
			dining.WithAlgorithmOptions(c.opts),
			dining.WithProtected(c.protected...),
			dining.WithMaxStates(maxStates),
			dining.WithWorkers(cfg.Workers),
			dining.WithShards(cfg.Shards),
		}
		if cfg.Symmetry {
			opts = append(opts, dining.WithSymmetry())
		}
		eng, err := dining.New(c.topo, c.algorithm, opts...)
		if err != nil {
			cli.Fatal("dpcheck", err)
		}
		start := time.Now()
		results, err := eng.CheckAll(ctx, dining.StarvationTrap)
		if err != nil {
			cli.Fatal("dpcheck", err)
		}
		r := results[0]
		all = append(all, r)
		gotTrap := !r.Passed
		if gotTrap != c.wantTrap && !r.Truncated {
			mismatches++
		}
		if cfg.JSON {
			continue
		}
		verdict := "no trap"
		if gotTrap {
			verdict = fmt.Sprintf("TRAP(%d)", r.TrapStates)
		}
		if r.Truncated {
			verdict += "*"
		}
		fmt.Printf("%-42s %-6s %-11d %-9s %-10s %s\n",
			c.label, c.algorithm, r.States, time.Since(start).Round(time.Millisecond), verdict, c.expect)
	}
	if cfg.JSON {
		emitJSON(all)
	} else {
		fmt.Println("\nA \"trap\" is an end component of the no-protected-meal sub-MDP that offers an allowed")
		fmt.Println("action for every philosopher: a fair adversary can stay inside it forever with positive")
		fmt.Println("probability. '*' marks truncated explorations (verdicts are then only lower bounds).")
		if mismatches > 0 {
			fmt.Printf("\n%d verdict(s) contradict the paper's expectation\n", mismatches)
		}
	}
	if mismatches > 0 {
		return 1
	}
	return 0
}

// emitJSON writes the stable PropertyResult wire format (pinned by the
// dining package's golden tests) to stdout.
func emitJSON(results []dining.PropertyResult) {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		cli.Fatal("dpcheck", err)
	}
	fmt.Println(string(out))
}
