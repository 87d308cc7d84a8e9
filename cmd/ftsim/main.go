// Command ftsim runs Monte-Carlo fault simulations on Network 𝒩 and the
// baselines: for a sweep of switch-failure rates ε it reports the
// probability that the network survives (and, for 𝒩, the full Theorem-2
// pipeline outcome).
//
// Usage:
//
//	ftsim -nu 2 -trials 200 -eps 0.0005,0.002,0.01 [-churn 100]
//	ftsim -kind benes -k 6 -trials 500 -eps 0.01,0.05
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(1)
	}
}

// errUsage marks a flag parse error, which the flag package has already
// reported on stderr.
var errUsage = errors.New("usage")

// run parses args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ftsim", flag.ContinueOnError)
	kind := fs.String("kind", "network-n", "network-n | benes | butterfly")
	nu := fs.Int("nu", 2, "ν for network-n")
	gamma := fs.Int("gamma", 0, "γ for network-n")
	m := fs.Int("m", 8, "M for network-n")
	dq := fs.Int("dq", 3, "DQ for network-n")
	k := fs.Int("k", 4, "k for benes/butterfly")
	epsList := fs.String("eps", "0.0005,0.002,0.01", "comma-separated ε values")
	trials := fs.Int("trials", 200, "Monte-Carlo trials per ε")
	churn := fs.Int("churn", 100, "churn operations per trial (network-n only)")
	seed := fs.Uint64("seed", 1, "root seed")
	workers := fs.Int("workers", 0, "worker goroutines for benes/butterfly (0 = GOMAXPROCS); network-n runs on one goroutine")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *trials < 0 {
		return fmt.Errorf("-trials must be >= 0, got %d", *trials)
	}

	var epss []float64
	for _, s := range strings.Split(*epsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return err
		}
		if err := fault.Symmetric(v).Validate(); err != nil {
			return fmt.Errorf("-eps %v: %w", v, err)
		}
		epss = append(epss, v)
	}

	switch *kind {
	case "network-n":
		p := core.Params{Nu: *nu, Gamma: *gamma, M: *m, DQ: *dq, Seed: 1}
		nw, err := core.Build(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "network-N: n=%d L=%d edges=%d\n", p.N(), p.L(), nw.G.NumEdges())
		tab := stats.NewTable("ε", "P[success] (95% CI)", "P[majority]", "P[shorted]", "mean failed switches")
		// One evaluator for every trial: its Evaluate is bit-identical to
		// Network.Evaluate, which would build a fresh one per trial.
		ev := core.NewEvaluator(nw)
		for _, eps := range epss {
			var succ, maj, shorted stats.Proportion
			var failed stats.Sample
			for i := 0; i < *trials; i++ {
				out := ev.Evaluate(fault.Symmetric(eps), *seed+uint64(i), *churn)
				succ.Add(out.Success)
				maj.Add(out.MajorityAccess)
				shorted.Add(out.Shorted)
				failed.Add(float64(out.FailedSwitches))
			}
			tab.AddRow(eps, succ.String(), maj.Estimate(), shorted.Estimate(), failed.Mean())
		}
		fmt.Fprint(w, tab.String())
	case "benes", "butterfly":
		var g *graph.Graph
		if *kind == "benes" {
			nw, err := benes.New(*k)
			if err != nil {
				return err
			}
			g = nw.G
		} else {
			nw, err := butterfly.New(*k)
			if err != nil {
				return err
			}
			g = nw.G
		}
		fmt.Fprintf(w, "%s: n=%d edges=%d\n", *kind, len(g.Inputs()), g.NumEdges())
		tab := stats.NewTable("ε", "P[survive basic checks] (95% CI)")
		for _, eps := range epss {
			p := montecarlo.RunBool(montecarlo.Config{Trials: *trials, Workers: *workers, Seed: *seed},
				func(r *rng.RNG) bool {
					inst := fault.Inject(g, fault.Symmetric(eps), r)
					return inst.SurvivesBasicChecks()
				})
			tab.AddRow(eps, p.String())
		}
		fmt.Fprint(w, tab.String())
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	return nil
}
