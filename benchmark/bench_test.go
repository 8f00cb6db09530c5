package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"ofc/internal/metrics"
)

// TestQuantileMatchesHistogram pins the ceiling nearest-rank rule to
// the repository's own metrics.Histogram.Quantile.
func TestQuantileMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 50, 99, 100, 101, 2000} {
		var h metrics.Histogram
		vals := make([]float64, n)
		for i := range vals {
			d := time.Duration(rng.Int63n(int64(time.Second)))
			h.Add(d)
			vals[i] = float64(d)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if got, want := quantile(vals, q), float64(h.Quantile(q)); got != want {
				t.Errorf("n=%d q=%v: quantile %v, metrics.Histogram %v", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty slice must give 0")
	}
	// p99 of 50 samples is the 50th value, not the 49th.
	fifty := make([]float64, 50)
	for i := range fifty {
		fifty[i] = float64(i + 1)
	}
	if got := quantile(fifty, 0.99); got != 50 {
		t.Errorf("p99 of 1..50 = %v, want 50", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("odd count: %+v", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1 || s.Q3 != 3 || s.N != 4 {
		t.Errorf("even count: %+v", s)
	}
	if (summarize(nil) != summary{}) {
		t.Error("empty input must give the zero summary")
	}
}

// TestScheduleFromSeed: the same seed gives the same bytes, another
// seed another schedule, and every schedule is sorted.
func TestScheduleFromSeed(t *testing.T) {
	for _, w := range workloads() {
		horizon := w.quickWarmup + w.quickWindow
		a, b, c := w.plan(7, horizon).sched, w.plan(7, horizon).sched, w.plan(8, horizon).sched
		if len(a) == 0 {
			t.Errorf("%s: empty schedule", w.name)
			continue
		}
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Due < a[j].Due }) {
			t.Errorf("%s: schedule not sorted by due time", w.name)
		}
		if last := a[len(a)-1].Due; last >= horizon {
			t.Errorf("%s: arrival at %v past the horizon %v", w.name, last, horizon)
		}
	}
}

// TestMacroCounts: whatever the seed, every macro24 tenant sends its ten
// requests in every 600 s and a pipeline tenant uses each input once a
// round.
func TestMacroCounts(t *testing.T) {
	w := workloadByName("macro24")
	block := macroPerBlock * macroMeanEvery
	for _, seed := range []int64{3, 4} {
		perBlock := map[[2]int]int{}
		keys := map[int][]int{}
		for _, a := range w.plan(seed, w.warmup+w.window).sched {
			perBlock[[2]int{a.Tenant, int(a.Due / block)}]++
			keys[a.Tenant] = append(keys[a.Tenant], a.Keys[0])
		}
		tenants := len(keys)
		if want := tenants * int((w.warmup+w.window)/block); len(perBlock) != want {
			t.Errorf("seed %d: %d (tenant, block) cells, want %d", seed, len(perBlock), want)
		}
		for cell, n := range perBlock {
			if n != macroPerBlock {
				t.Errorf("seed %d: tenant %d sent %d requests in block %d, want %d", seed, cell[0], n, cell[1], macroPerBlock)
			}
		}
		// Tenants 6 and 7 of each group of 8 are the pipelines.
		for tn, ks := range keys {
			if tn%8 < len(macroSingle) {
				continue
			}
			seen := map[int]bool{}
			for _, k := range ks[:macroPipelineInputs] {
				seen[k] = true
			}
			if len(seen) != macroPipelineInputs {
				t.Errorf("seed %d: tenant %d used %d inputs in its first round, want %d", seed, tn, len(seen), macroPipelineInputs)
			}
		}
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []float64{0.6, 0.8, 1.1} {
		z := newZipf(100, s)
		counts := make([]int, 100)
		for i := 0; i < 200000; i++ {
			counts[z.draw(rng)]++
		}
		// P(rank 0) / P(rank 9) = 10^s.
		got, want := float64(counts[0])/float64(counts[9]), math.Pow(10, s)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("s=%v: rank0/rank9 = %.2f, want %.2f", s, got, want)
		}
	}
}

func TestOfcPackage(t *testing.T) {
	for name, want := range map[string]string{
		"ofc/internal/sim.(*Env).Sleep":                                           "sim",
		"ofc/internal/core.(*RCLib).Get":                                          "core",
		"ofc/internal/simnet.TryCall[go.shape.struct { ofc/internal/kvstore.p }]": "simnet",
		"ofc/internal/mltree.evaluateSplit.SortByAttr.func1":                      "mltree",
		"main.runRep.func1":                                                       "benchmark",
		"runtime.mallocgc":                                                        "",
		"sort.insertionSort":                                                      "",
		"internal/sync.(*Mutex).Lock":                                             "",
	} {
		if got := ofcPackage(name); got != want {
			t.Errorf("ofcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestFoldProfile folds the recorded fixture (a CPU profile of a
// hot-hit window taken by this benchmark): the shares are percentages
// of all samples, and the simulator core leads.
func TestFoldProfile(t *testing.T) {
	gz, err := os.ReadFile("testdata/hot-hit.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, k := range cpuShares {
		v, ok := shares[k]
		if !ok || v < 0 {
			t.Errorf("share %q = %v, present %v", k, v, ok)
		}
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if len(shares) != len(cpuShares) {
		t.Errorf("%d shares for %d keys", len(shares), len(cpuShares))
	}
	for _, k := range []string{"sim", "faas", "core", "kvstore", "runtime_sched"} {
		if shares[k] <= 0 {
			t.Errorf("fixture has no samples in %s", k)
		}
	}
	if shares["sim"] < shares["objstore"] {
		t.Errorf("hot-hit spends more in objstore (%v%%) than in sim (%v%%)", shares["objstore"], shares["sim"])
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input must be an error")
	}
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this
// package saying the same thing, inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -describe > BENCHMARK.json`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range got.Workloads {
		name(w.Name)
		def := workloads()[i]
		if w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: %q differs from the table's %q", i, w.Name, def.name)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %+v breaks the contract", m)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
}

// TestSmoke runs all four workloads at the quick scale, one of them
// traced: every check passes, nothing fails, and the run prints exactly
// the metric sets BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four simulated deployments")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as main pins it
	for _, w := range workloads() {
		traced := w.name == "write-pipeline"
		rep := runWorkload(w, 1, 0, true, traced, t.TempDir(), io.Discard)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v", w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Checks)
		}
		if rep.Reps < minReps {
			t.Errorf("%s: %d repetitions, want at least %d", w.name, rep.Reps, minReps)
		}
		for _, d := range endToEnd {
			m, ok := rep.e2e.m[d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if len(rep.e2e.names) != len(endToEnd) {
			t.Errorf("%s: printed %d end-to-end metrics, table has %d", w.name, len(rep.e2e.names), len(endToEnd))
		}
		for _, d := range perLayer {
			m, ok := rep.layer.m[d.name]
			if !ok && !traced && tracedOnly(d.name) {
				continue
			}
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if traced {
			if len(rep.layer.names) != len(perLayer) {
				t.Errorf("%s: printed %d per-layer metrics, table has %d", w.name, len(rep.layer.names), len(perLayer))
			}
			if st, err := os.Stat(rep.TraceFile); err != nil || st.Size() == 0 {
				t.Errorf("%s: no Chrome trace at %q: %v", w.name, rep.TraceFile, err)
			}
		}
	}
}
