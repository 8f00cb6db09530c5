package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ofc/internal/core"
)

// minReps is the fewest timed repetitions per run: enough that every
// slice of the window has a repetition the host left undisturbed.
const minReps = 3

// repeatTol is how far a virtual end-to-end metric may move between two
// repetitions at one seed before the run is declared broken. cold-miss
// is chaotic: one reordered pair of same-instant events changes which
// objects the cache holds minutes later, and its hit ratio has been
// seen to differ by 2.3 % between repetitions.
const repeatTol = 0.10

// setupSamples is how many set-up timings a run collects; repetitions
// provide the first ones and set-up-only passes the rest, within
// setupBudget of host time.
const (
	setupSamples = 25
	setupBudget  = time.Second
)

// report is everything one run of one workload produced.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	WarmupS   float64            `json:"virt_warmup_s"`
	WindowS   float64            `json:"virt_window_s"`
	SLOMs     float64            `json:"virt_slo_ms"`
	TimedS    float64            `json:"host_timed_s"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Spread    map[string]summary `json:"end_to_end_over_reps"`
	PerLayer  map[string]metric  `json:"per_layer"`
	TraceFile string             `json:"trace_file,omitempty"`

	e2e, layer metricSet
}

// runWorkload runs the CacheOff pass, the timed repetitions and, when
// traced, the traced repetition and the ladder, strictly one after
// another.
func runWorkload(w *workloadDef, seed int64, seconds float64, quick, traced bool, outDir string, log io.Writer) *report {
	warmup, window := w.warmup, w.window
	if quick {
		warmup, window = w.quickWarmup, w.quickWindow
	}
	rep := &report{Workload: w.name, Why: w.why, Seed: seed, WarmupS: warmup.Seconds(), WindowS: window.Seconds(), SLOMs: w.sloMs}
	pl := w.plan(seed, warmup+window)

	// The same schedule on the vanilla platform: the denominator of
	// virt_speedup_x, outside set-up and outside the timed interval.
	off := runRep(w, pl, seed, quick, repMode{cacheOff: true})
	for _, c := range off.checks {
		rep.Checks = append(rep.Checks, "cache-off pass: "+c)
	}

	var reps []*repResult
	var setups, allocs []float64
	for rep.TimedS < seconds || len(reps) < minReps {
		r := runRep(w, pl, seed, quick, repMode{})
		reps = append(reps, r)
		setups = append(setups, r.setupS)
		allocs = append(allocs, r.allocKB)
		rep.TimedS += r.hostS
		for _, c := range r.checks {
			rep.Checks = append(rep.Checks, fmt.Sprintf("rep %d: %s", len(reps), c))
		}
		fmt.Fprintf(log, "%s rep %d: %.2f s host, %.0f inv/s\n", w.name, len(reps), r.hostS, ratio(float64(r.inv), r.hostS))
	}
	first := reps[0]
	rep.Reps, rep.Attempted, rep.Failed = len(reps), first.attempted, first.failed+first.lost

	// Repeatability of the virtual side. A simulation process that fans
	// out with Env.Go (kvstore replication, parallel pipeline stages)
	// leaves the order of its children's first same-instant events to
	// the host scheduler, so runs at one seed can differ in the last
	// digits. The largest relative difference of a virtual end-to-end
	// metric is reported as sim.repeat_max_rel_diff; it is the floor
	// below which a virtual difference between two commits means
	// nothing. A metric that moves by more than repeatTol is a broken
	// run.
	var worst float64
	for _, r := range reps[1:] {
		d := maxRelDiff(&first.virt, &r.virt)
		worst = max(worst, d)
		if d > repeatTol {
			rep.Checks = append(rep.Checks, fmt.Sprintf("virtual end-to-end metrics differ by %.3g between repetitions at one seed: %v", d, diffSets(&first.virt, &r.virt)))
		}
	}
	if off.attempted != first.attempted {
		rep.Checks = append(rep.Checks, fmt.Sprintf("cache-off pass attempted %d requests, OFC %d", off.attempted, first.attempted))
	}

	// The smoke scale takes its set-up timings from the repetitions alone.
	deadline := time.Now().Add(setupBudget)
	for !quick && len(setups) < setupSamples && time.Now().Before(deadline) {
		setups = append(setups, setupOnly(w, pl, seed))
	}

	rates := make([]float64, len(reps))
	for i, r := range reps {
		rates[i] = ratio(float64(r.inv), r.hostS)
	}
	e := &rep.e2e
	rep.Spread = map[string]summary{"setup_s": summarize(setups), "sim_inv_per_s": summarize(rates), "host_alloc_kb_per_inv": summarize(allocs)}
	e.set("setup_s", rep.Spread["setup_s"].Median, "s")
	e.set("sim_inv_per_s", ratio(float64(first.inv), steadyHostS(reps)), "inv/s")
	e.set("host_alloc_kb_per_inv", rep.Spread["host_alloc_kb_per_inv"].Median, "KB/inv")
	virt := medianSet(reps, func(r *repResult) *metricSet { return &r.virt })
	for _, name := range []string{"virt_inv_p50_ms", "virt_inv_p99_ms", "virt_slo_ok_frac"} {
		e.set(name, virt.get(name), virt.m[name].Unit)
	}
	latSums := make([]float64, len(reps))
	for i, r := range reps {
		latSums[i] = float64(r.latSumNs)
	}
	speedup := ratio(float64(off.latSumNs), summarize(latSums).Median)
	e.set("virt_speedup_x", speedup, "x")
	e.set("cache_hit_ratio", virt.get("cache_hit_ratio"), "fraction")

	l := &rep.layer
	l.set("virt_slo_miss_frac", 1-virt.get("virt_slo_ok_frac"), "fraction")
	l.set("failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "fraction")
	l.set("virt_improvement_pct", 100*(1-ratio(1, speedup)), "%")
	l.set("virt_rsds_bytes_per_inv", virt.get("virt_rsds_bytes_per_inv"), "B/inv")
	for _, set := range []metricSet{
		medianSet(reps, func(r *repResult) *metricSet { return &r.layer }),
		medianSet(reps, func(r *repResult) *metricSet { return &r.hostLayer }),
	} {
		for _, name := range set.names {
			l.set(name, set.get(name), set.m[name].Unit)
		}
	}
	l.set("sim.repeat_max_rel_diff", worst, "fraction")

	if traced {
		tracedPass(w, pl, seed, quick, rep, first, outDir)
	}

	rep.Correct = len(rep.Checks) == 0 && rep.Failed == 0
	rep.EndToEnd, rep.PerLayer = rep.e2e.m, rep.layer.m
	return rep
}

// tracedPass is the one extra repetition with every probe on; nothing
// it measures enters the end-to-end numbers.
func tracedPass(w *workloadDef, pl *plan, seed int64, quick bool, rep *report, first *repResult, outDir string) {
	var prof bytes.Buffer
	t := runRep(w, pl, seed, quick, repMode{traced: true, profile: &prof})
	for _, c := range t.checks {
		rep.Checks = append(rep.Checks, "traced pass: "+c)
	}
	// Probes must not move the virtual side.
	if d := maxRelDiff(&first.virt, &t.virt); d > repeatTol {
		rep.Checks = append(rep.Checks, fmt.Sprintf("traced pass moved virtual end-to-end metrics by %.3g: %v", d, diffSets(&first.virt, &t.virt)))
	}
	rec, l := t.rec, &rep.layer
	if rec.own != rec.res {
		rep.Checks = append(rep.Checks, fmt.Sprintf("traced pass: body spans sum to %v, faas.Result phases to %v", rec.own, rec.res))
	}
	n := float64(rec.inv)
	perInv := func(d time.Duration) float64 { return ratio(float64(d)/1e6, n) }
	busy := rec.phase[phExtract] + rec.phase[phTransform] + rec.phase[phLoad]
	l.set("trace.virt_self_ms.invoke_queue", perInv(rec.invokeDur-busy-rec.scaledown), "ms")
	l.set("trace.virt_self_ms.extract", perInv(rec.phase[phExtract]), "ms")
	l.set("trace.virt_self_ms.transform", perInv(rec.phase[phTransform]), "ms")
	l.set("trace.virt_self_ms.load", perInv(rec.phase[phLoad]), "ms")
	l.set("trace.virt_self_ms.scaledown", perInv(rec.scaledown), "ms")
	l.set("trace.host_self_us_per_inv.advise", ratio(float64(rec.adviseNs)/1e3, n), "us/inv")
	l.set("trace.host_self_us_per_inv.route", ratio(float64(rec.routeNs)/1e3, n), "us/inv")
	l.set("trace.host_self_us_per_inv.observe", ratio(float64(rec.observeNs)/1e3, n), "us/inv")
	l.set("trace.spans_per_inv", ratio(float64(t.progSpans), n), "1/inv")
	l.set("trace.drops", float64(t.progDrops), "count")
	// Against the plain median over repetitions: the traced pass is one
	// repetition, so it has no fastest-slice figure to compare.
	l.set("trace.overhead_pct", 100*(1-ratio(ratio(float64(t.inv), t.hostS), rep.Spread["sim_inv_per_s"].Median)), "%")

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}
	for _, k := range cpuShares {
		l.set("host.cpu_pct."+k, shares[k], "%")
	}

	if err := runLadder(l); err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}

	rep.TraceFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := writeTraceFile(rep.TraceFile, rec.spans); err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupOnly times one more set-up: build the system, register and
// pretrain, stage the inputs.
func setupOnly(w *workloadDef, pl *plan, seed int64) float64 {
	t0 := time.Now()
	sys := newSystem(w, seed, false)
	drv := pl.deploy(sys, nil)
	sys.Start()
	var took float64
	sys.Env.Go(func() {
		drv.stage()
		took = time.Since(t0).Seconds()
		sys.Env.Stop()
	})
	sys.Env.Run()
	return took
}

// newSystem builds the workload's system under test (the vanilla
// platform when cacheOff).
func newSystem(w *workloadDef, seed int64, cacheOff bool) *core.System {
	opts := w.options()
	opts.Seed = seed
	opts.CacheOff = cacheOff
	return core.NewSystem(opts)
}

// steadyHostS is the host time of one repetition with the host's
// hiccups taken out. Every repetition does the same work in the same
// virtual slices, so each slice is timed by its fastest repetition and
// the slices are summed. On a shared host the CPU drops to about 60 %
// speed for about a second every few seconds; that spoils one slice of
// one repetition, and the fastest repetition of a slice is the one the
// host left alone. (Timing each slice by its second-fastest repetition
// instead spread more between runs on three workloads of four.)
func steadyHostS(reps []*repResult) float64 {
	n := len(reps[0].slices)
	for _, r := range reps {
		n = min(n, len(r.slices))
	}
	var total float64
	col := make([]float64, len(reps))
	for k := 0; k < n; k++ {
		for i, r := range reps {
			col[i] = r.slices[k]
		}
		total += slices.Min(col)
	}
	return total
}

// medianSet takes each metric's median over the repetitions (the value
// itself wherever the repetitions agree).
func medianSet(reps []*repResult, pick func(*repResult) *metricSet) metricSet {
	var out metricSet
	first := pick(reps[0])
	vals := make([]float64, len(reps))
	for _, name := range first.names {
		for i, r := range reps {
			vals[i] = pick(r).get(name)
		}
		out.set(name, summarize(vals).Median, first.m[name].Unit)
	}
	return out
}

// maxRelDiff is the largest relative difference between two
// repetitions' values of one metric.
func maxRelDiff(a, b *metricSet) float64 {
	var worst float64
	for _, name := range a.names {
		x, y := a.get(name), b.get(name)
		if x != y {
			worst = max(worst, math.Abs(x-y)/max(math.Abs(x), math.Abs(y)))
		}
	}
	return worst
}

// diffSets lists the metrics whose values differ between two
// repetitions.
func diffSets(a, b *metricSet) []string {
	var out []string
	for _, name := range a.names {
		if a.m[name] != b.m[name] {
			out = append(out, fmt.Sprintf("%s %v != %v", name, a.m[name].Value, b.m[name].Value))
		}
	}
	return out
}

// print writes the human-readable tables.
func (rep *report) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s  seed %d  %d reps, %.1f s timed  window %.0f s virtual after %.0f s warm-up  limit %.0f ms ==\n",
		rep.Workload, rep.Seed, rep.Reps, rep.TimedS, rep.WindowS, rep.WarmupS, rep.SLOMs)
	fmt.Fprintf(out, "%-40s %16s %-10s %-8s %s\n", "end-to-end", "value", "unit", "clock", "over reps: q1 .. q3 (n)")
	for _, d := range endToEnd {
		m := rep.e2e.m[d.name]
		spread := "median over reps; see sim.repeat_max_rel_diff"
		if s, ok := rep.Spread[d.name]; ok {
			spread = fmt.Sprintf("%.6g .. %.6g (n=%d)", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(out, "%-40s %16.6g %-10s %-8s %s\n", d.name, m.Value, m.Unit, d.clock, spread)
	}
	fmt.Fprintf(out, "%-40s %16s %-10s %-8s\n", "per-layer", "value", "unit", "clock")
	for _, d := range perLayer {
		m, ok := rep.layer.m[d.name]
		if !ok {
			continue // traced-pass metrics in an untraced run
		}
		fmt.Fprintf(out, "%-40s %16.6g %-10s %-8s\n", d.name, m.Value, m.Unit, d.clock)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(out, "chrome trace: %s\n", rep.TraceFile)
	}
	if len(rep.Checks) == 0 {
		fmt.Fprintf(out, "checks: all passed (%d attempted, %d failed)\n", rep.Attempted, rep.Failed)
		return
	}
	fmt.Fprintf(out, "checks FAILED (%d attempted, %d failed):\n", rep.Attempted, rep.Failed)
	for i, c := range rep.Checks {
		if i == 20 {
			fmt.Fprintf(out, "  ... and %d more\n", len(rep.Checks)-i)
			break
		}
		fmt.Fprintf(out, "  %s\n", c)
	}
}
