// Command ofc-bench regenerates the paper's tables and figures and
// prints them as text tables.
//
// Usage:
//
//	ofc-bench -exp all
//	ofc-bench -exp fig7 -seed 3
//	ofc-bench -exp table1 -quick
//	ofc-bench -exp all -jobs 4 -benchout BENCH_sim.json
//	ofc-bench -list
//
// Experiment ids follow DESIGN.md's per-experiment index: summary,
// fig2, fig3, table1, benefit, fig5, fig6, maturation, fig7, fig7x5,
// fig8, migration, fig9 (also prints fig10 and table2), macro24,
// ablations, constants, resilience, chaos, overload, policies,
// chunking, storeplane. The policies grid additionally honors -evict
// and -slack to scope the eviction × slack matrix.
//
// Independent experiments run concurrently on a GOMAXPROCS-bounded
// worker pool (-jobs overrides); each experiment buffers its output
// and results stream in declaration order, so the report reads the
// same regardless of parallelism. -benchout additionally runs the
// scheduler/storage micro-benchmarks and writes a machine-readable
// perf snapshot (see bench.go) for scripts/benchdiff.go to regress
// against.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ofc/internal/experiments"
	"ofc/internal/memctl"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (or 'all')")
		seed     = flag.Int64("seed", 1, "random seed")
		quick    = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		format   = flag.String("format", "table", "output format: table | csv")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "experiments to run concurrently")
		benchout = flag.String("benchout", "", "write a BENCH_sim.json perf snapshot to this path")
	)
	flag.StringVar(&evictFlag, "evict", "", "policies experiment: comma-separated eviction policies (default: all)")
	flag.StringVar(&slackFlag, "slack", "", "policies experiment: comma-separated slack estimators (default: all)")
	flag.Parse()

	if err := checkPolicyFlags(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exps := experiments.Registry(splitList(evictFlag), splitList(slackFlag))
	if *list {
		for _, e := range exps {
			fmt.Printf("%-11s %s\n", e.ID, e.Desc)
		}
		return
	}
	var chosen []experiments.Experiment
	if *exp == "all" {
		chosen = exps
	} else {
		for _, e := range exps {
			if e.ID == *exp {
				chosen = append(chosen, e)
			}
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	}

	wallStart := time.Now()
	type done struct {
		out  *experiments.Report
		took time.Duration
	}
	results := make([]chan done, len(chosen))
	for i := range results {
		results[i] = make(chan done, 1)
	}
	// Bounded fan-out over the chosen experiments; each has its own
	// seed-derived Envs, so runs are independent.
	sem := make(chan struct{}, max(1, *jobs))
	for i, e := range chosen {
		i, e := i, e
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			o := &experiments.Report{CSV: *format == "csv"}
			start := time.Now()
			e.Run(o, *seed, *quick)
			results[i] <- done{out: o, took: time.Since(start)}
		}()
	}
	// Stream in declaration order: experiment i prints as soon as it
	// and all its predecessors are finished.
	wall := make([]ExpEntry, 0, len(chosen))
	for i, e := range chosen {
		d := <-results[i]
		os.Stdout.Write(d.out.Bytes())
		fmt.Printf("(%s took %v)\n\n", e.ID, d.took.Round(time.Millisecond))
		wall = append(wall, ExpEntry{ID: e.ID, WallMs: float64(d.took.Microseconds()) / 1e3})
	}

	if *benchout != "" {
		if err := writeBenchFile(*benchout, wall, time.Since(wallStart)); err != nil {
			fmt.Fprintf(os.Stderr, "benchout: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote perf snapshot to %s\n", *benchout)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// evictFlag and slackFlag scope the policies experiment's grid; empty
// means the full memctl registry.
var evictFlag, slackFlag string

// checkPolicyFlags rejects unknown -evict/-slack names up front, so a
// typo gets a flag error instead of a panic mid-grid.
func checkPolicyFlags() error {
	known := func(names []string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	evict, slack := known(memctl.EvictionPolicies()), known(memctl.SlackEstimators())
	for _, n := range splitList(evictFlag) {
		if !evict[n] {
			return fmt.Errorf("unknown eviction policy %q; known: %s", n, strings.Join(memctl.EvictionPolicies(), ", "))
		}
	}
	for _, n := range splitList(slackFlag) {
		if !slack[n] {
			return fmt.Errorf("unknown slack estimator %q; known: %s", n, strings.Join(memctl.SlackEstimators(), ", "))
		}
	}
	return nil
}

// splitList parses a comma-separated flag into a slice (nil if empty).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
