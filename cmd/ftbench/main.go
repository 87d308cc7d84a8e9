// Command ftbench regenerates every experiment table of the reproduction
// (E1–E14, covering all quantitative artifacts of Pippenger & Lin 1994:
// Proposition 1, Lemmas 1–7, Theorems 1–2, Figs. 1–5, plus the §2–§4
// surveys) and prints them as Markdown. EXPERIMENTS.md at the repo root is
// its output:
//
//	go run ./cmd/ftbench -mode quick -o EXPERIMENTS.md
//
// All experiments run on the zero-allocation batched block engine
// (fault.BatchInjector + core.Evaluator + montecarlo.RunBoolWith/RunWith):
// each worker owns one reusable scratch (fault instance, repair masks,
// access checker, pooled router), workers claim trials in contiguous
// blocks whose failure positions are drawn in one geometric-skip sweep,
// and repair masks are maintained incrementally from the per-trial diffs —
// so per-trial overhead is O(#failure changes), not O(switches), and trial
// throughput is bounded by graph traversal, not GC or resets. Trial
// churn runs per op (netsim.ChurnDriver over the route.Engine seam, one
// single-request batch per connect), and E9 drives every engine through
// that same seam.
//
// Usage:
//
//	ftbench [-mode quick|full] [-only E7] [-o file]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ftcsn/internal/experiments"
)

func main() {
	mode := flag.String("mode", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E7); empty = all")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var m experiments.Mode
	switch *mode {
	case "quick":
		m = experiments.Quick
	case "full":
		m = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "ftbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	registry := experiments.Registry()
	valid := make([]string, len(registry))
	for i, e := range registry {
		valid[i] = e.ID
	}
	want, err := selectIDs(*only, valid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	var f *os.File
	var bw *bufio.Writer
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			os.Exit(1)
		}
		bw = bufio.NewWriter(f)
		w = bw
	}

	// The header is date-free on purpose: quick-mode output is committed as
	// EXPERIMENTS.md and the CI determinism gate regenerates it and fails on
	// any diff, so every byte must be a pure function of the code.
	fmt.Fprintf(w, "# EXPERIMENTS — Fault-Tolerant Circuit-Switching Networks (Pippenger & Lin)\n\n")
	fmt.Fprintf(w, "Generated by `ftbench -mode %s` (regenerate with `make experiments`; CI fails on drift).\n", *mode)
	fmt.Fprintf(w, "Paper-vs-measured for every table/figure-equivalent artifact; see DESIGN.md §4 for the experiment index.\n\n")

	for _, e := range registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		res := e.Run(m)
		res.Render(w)
		fmt.Fprintf(os.Stderr, "ftbench: %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	// A failed write leaves a truncated document: the buffered writer
	// keeps the first write error, and Close reports what the file saw.
	if f != nil {
		if err := errors.Join(bw.Flush(), f.Close()); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
}

// selectIDs parses the -only list (comma-separated, case-insensitive)
// against the valid experiment IDs; an empty list selects every
// experiment and an unknown ID is an error naming the valid ones.
func selectIDs(only string, valid []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q in -only (valid: %s)", id, strings.Join(valid, ","))
		}
		want[id] = true
	}
	return want, nil
}
