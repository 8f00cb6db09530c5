// Command benchdiff compares two BENCH_sim.json perf snapshots (see
// cmd/ofc-bench -benchout) and fails when the new one regresses the
// old by more than a threshold on a row that repeats.
//
// Usage:
//
//	go run ./scripts OLD.json NEW.json [-max-regress 0.20]
//
// Two kinds of row. allocs/op and the quality metrics are counts made
// by the program on the virtual clock: they repeat, so a move past the
// threshold in the bad direction is a regression and exits 1. ns/op,
// events/s and wall-clock are host timings: an unchanged tree moves
// them by more than 20 % on a busy machine, so they are printed as
// advisory and never fail the run. Host timings are compared in
// paired runs of the repository benchmark instead (benchmark/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type benchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type expEntry struct {
	ID     string  `json:"id"`
	WallMs float64 `json:"wall_ms"`
}

type qualityEntry struct {
	Name         string  `json:"name"`
	Value        float64 `json:"value"`
	HigherBetter bool    `json:"higher_better"`
}

type benchFile struct {
	Micro       []benchEntry   `json:"micro"`
	Experiments []expEntry     `json:"experiments"`
	Quality     []qualityEntry `json:"quality"`
	TotalWallMs float64        `json:"total_wall_ms"`
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional slowdown before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress 0.20] OLD.json NEW.json")
		os.Exit(2)
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var regressions []string
	// advise prints a host timing and never fails. Sub-millisecond
	// experiment timings and sub-nanosecond deltas say nothing, so rows
	// under floor are left out.
	advise := func(name string, oldV, newV, floor float64, higherBetter bool) {
		if oldV < floor || newV < floor {
			return
		}
		ratio := newV/oldV - 1
		worse := ratio
		if higherBetter {
			worse = -ratio
		}
		note := "advisory"
		if worse > *maxRegress {
			note = "advisory: slower"
		}
		fmt.Printf("%-40s %12.2f -> %12.2f  (%+6.1f%%)  %s\n", name, oldV, newV, ratio*100, note)
	}
	// gateAllocs fails on an allocation count past the threshold; a row
	// that allocated nothing must keep allocating nothing.
	gateAllocs := func(name string, oldV, newV float64) {
		verdict := "ok"
		if newV > oldV*(1+*maxRegress) {
			verdict = "REGRESSION"
			regressions = append(regressions, name)
		}
		fmt.Printf("%-40s %12.2f -> %12.2f  %s\n", name, oldV, newV, verdict)
	}

	newMicro := map[string]benchEntry{}
	for _, e := range newF.Micro {
		newMicro[e.Name] = e
	}
	for _, o := range oldF.Micro {
		n, ok := newMicro[o.Name]
		if !ok {
			fmt.Printf("%-40s dropped from new snapshot\n", "micro/"+o.Name)
			continue
		}
		advise("micro/"+o.Name+"/ns_op", o.NsPerOp, n.NsPerOp, 1, false)
		advise("micro/"+o.Name+"/events_per_sec", o.EventsPerSec, n.EventsPerSec, 1, true)
		gateAllocs("micro/"+o.Name+"/allocs_op", o.AllocsPerOp, n.AllocsPerOp)
	}
	// Micro rows only present in the new snapshot (a freshly added
	// benchmark) have no baseline to gate against; report them so the
	// next baseline refresh picks them up.
	oldMicro := map[string]benchEntry{}
	for _, e := range oldF.Micro {
		oldMicro[e.Name] = e
	}
	for _, n := range newF.Micro {
		if _, ok := oldMicro[n.Name]; !ok {
			fmt.Printf("%-40s %12s -> %12.2f  new metric (no baseline)\n", "micro/"+n.Name+"/ns_op", "-", n.NsPerOp)
		}
	}

	newExp := map[string]expEntry{}
	for _, e := range newF.Experiments {
		newExp[e.ID] = e
	}
	for _, o := range oldF.Experiments {
		n, ok := newExp[o.ID]
		if !ok {
			fmt.Printf("%-40s dropped from new snapshot\n", "exp/"+o.ID)
			continue
		}
		advise("exp/"+o.ID+"/wall_ms", o.WallMs, n.WallMs, 1, false)
	}
	advise("total_wall_ms", oldF.TotalWallMs, newF.TotalWallMs, 1, false)

	// Quality metrics are deterministic virtual-clock counters, so there
	// is no noise floor: any movement past the threshold in the bad
	// direction (down for higher-better, up for lower-better) fails.
	newQual := map[string]qualityEntry{}
	for _, e := range newF.Quality {
		newQual[e.Name] = e
	}
	for _, o := range oldF.Quality {
		n, ok := newQual[o.Name]
		if !ok {
			fmt.Printf("%-40s dropped from new snapshot\n", "quality/"+o.Name)
			regressions = append(regressions, "quality/"+o.Name+" (dropped)")
			continue
		}
		var worse float64 // fractional move in the bad direction
		switch {
		case o.HigherBetter && o.Value > 0:
			worse = (o.Value - n.Value) / o.Value
		case !o.HigherBetter && o.Value > 0:
			worse = (n.Value - o.Value) / o.Value
		case !o.HigherBetter && o.Value == 0:
			// Was perfect (e.g. zero lost outputs); any increase fails.
			if n.Value > 0 {
				worse = 1
			}
		}
		verdict := "ok"
		if worse > *maxRegress {
			verdict = "REGRESSION"
			regressions = append(regressions, "quality/"+o.Name)
		}
		fmt.Printf("%-40s %12.2f -> %12.2f  (worse %+5.1f%%)  %s\n",
			"quality/"+o.Name, o.Value, n.Value, worse*100, verdict)
	}
	// Quality metrics only present in the new snapshot (a fresh
	// experiment or policy cell) have no baseline to gate against;
	// report them so the next baseline refresh picks them up.
	oldQual := map[string]qualityEntry{}
	for _, e := range oldF.Quality {
		oldQual[e.Name] = e
	}
	for _, n := range newF.Quality {
		if _, ok := oldQual[n.Name]; !ok {
			fmt.Printf("%-40s %12s -> %12.2f  new metric (no baseline)\n", "quality/"+n.Name, "-", n.Value)
		}
	}

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d regression(s) beyond %.0f%%:\n", len(regressions), *maxRegress*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  ", r)
		}
		os.Exit(1)
	}
	fmt.Println("\nno regressions beyond threshold")
}
