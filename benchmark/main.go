// Command benchmark is the repository's performance benchmark: it
// drives a fresh OFC deployment per repetition with a seeded open-loop
// arrival schedule on the virtual clock, times the run on the host
// clock, checks the outputs and reports end-to-end and per-layer
// metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// result is the last line of standard output: the contract with the
// driver that runs this benchmark.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo goes beside the metrics in the -out file: host-clock
// numbers mean nothing without it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: macro24, hot-hit, cold-miss or write-pipeline (default: all four, in turn)")
		seed    = flag.Int64("seed", 1, "seed of the arrival schedule")
		seconds = flag.Float64("seconds", runSeconds, "host seconds of timed repetitions per workload (at least 3 repetitions run)")
		traced  = flag.Int("trace", 0, "1 adds the traced repetition, the CPU profile and the ladder, and prints the per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke-test scale: short windows, numbers not comparable")
		out     = flag.String("out", "", "also write the full results, with host info, as JSON to this file")
		outDir  = flag.String("outdir", "benchmark/out", "directory for the Chrome trace files of the traced pass")
	)
	desc := flag.Bool("describe", false, "print BENCHMARK.json as the tables in this package define it, and exit")
	flag.Parse()
	if *desc {
		os.Stdout.Write(describe())
		return
	}
	// One P: the simulator runs one process at a time, so a second P
	// only turns goroutine hand-offs into cross-CPU wake-ups. On a shared
	// 2-vCPU host those stall whenever the hypervisor parks either vCPU:
	// ten runs of one commit spread by 21 % with two Ps and by 5 % with
	// one (and one P is a fifth faster). It also keeps a bigger host from
	// changing what is measured.
	const procs = 1
	runtime.GOMAXPROCS(procs)

	var defs []*workloadDef
	if *name == "" {
		defs = workloads()
	} else if w := workloadByName(*name); w != nil {
		defs = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	var reports []*report
	for _, w := range defs {
		rep := runWorkload(w, *seed, *seconds, *quick, *traced != 0, *outDir, os.Stderr)
		rep.print(os.Stdout)
		reports = append(reports, rep)

		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		// One workload: exactly the metric set the mode asks for. All
		// four: the same, prefixed with the workload.
		set := rep.e2e
		if *traced != 0 {
			set = rep.layer
		}
		for _, n := range set.names {
			key := n
			if len(defs) > 1 {
				key = w.name + "/" + n
			}
			final.Metrics[key] = set.m[n]
		}
	}

	if *out != "" {
		full := struct {
			Host      hostInfo  `json:"host"`
			Seconds   float64   `json:"seconds"`
			Quick     bool      `json:"quick"`
			Workloads []*report `json:"workloads"`
		}{hostInfo{runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH}, *seconds, *quick, reports}
		b, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -out: %v\n", err)
			os.Exit(1)
		}
	}

	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}
