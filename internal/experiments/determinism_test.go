package experiments

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/sim"
	"ofc/internal/trace"
	"ofc/internal/workload"
)

// TestResilienceDeterministic is the runtime witness behind the
// ofc-lint static gate: with the same seed, a full experiment — FaaS
// platform, cache, chaos schedule, recovery — must reproduce its
// metrics output byte for byte. Any host-clock read, global-rand draw,
// or map-ordering leak in the simulated stack shows up here as a diff.
func TestResilienceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the resilience drill twice")
	}
	tab1, healthy1 := Resilience(3)
	tab2, healthy2 := Resilience(3)
	if healthy1 != healthy2 {
		t.Fatalf("health verdict differs across identical seeds: %v vs %v", healthy1, healthy2)
	}
	if s1, s2 := tab1.String(), tab2.String(); s1 != s2 {
		t.Errorf("table output differs across identical seeds:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
	if c1, c2 := tab1.CSV(), tab2.CSV(); c1 != c2 {
		t.Errorf("CSV output differs across identical seeds:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", c1, c2)
	}
	// A different seed must still be healthy but is allowed to (and in
	// practice does) produce different numbers — guard against the
	// degenerate case where the metrics are seed-independent constants.
	tab3, healthy3 := Resilience(4)
	if !healthy3 {
		t.Errorf("resilience run with seed 4 unhealthy:\n%s", tab3)
	}
	if tab3.String() == tab1.String() {
		t.Errorf("seeds 3 and 4 produced identical tables; metrics look seed-independent")
	}
}

// observer keeps every deployment the experiments under test build, so
// that what a run leaves behind can be compared beyond the tables it
// prints: every layer's counters and the trace export.
type observer struct {
	mu   sync.Mutex
	deps []*Deployment
}

// observeDeployments installs the NewDeployment hook for the rest of
// the test. With traced set, OFC deployments get a small tracer: the
// first 1 024 spans in canonical order are a fingerprint of the event
// order, and the drop count covers the rest.
func observeDeployments(t *testing.T, traced bool) *observer {
	o := &observer{}
	deployed = func(d *Deployment) {
		if traced && d.Sys != nil {
			d.Sys.EnableTracing(trace.Config{Shards: 1, ShardCap: 1024})
		}
		o.mu.Lock()
		o.deps = append(o.deps, d)
		o.mu.Unlock()
	}
	t.Cleanup(func() { deployed = nil })
	return o
}

// drain returns one line per deployment seen since the last call and
// forgets them. The lines are sorted: the cells of one experiment
// deploy from several goroutines, in no fixed order.
func (o *observer) drain() []string {
	o.mu.Lock()
	deps := o.deps
	o.deps = nil
	o.mu.Unlock()
	lines := make([]string, len(deps))
	for i, d := range deps {
		lines[i] = deploymentDigest(d)
	}
	sort.Strings(lines)
	return lines
}

// deploymentDigest renders every Stats() snapshot of a finished
// deployment, the clock and event count it stopped at, and a hash of
// its trace export.
func deploymentDigest(d *Deployment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v now=%d events=%d faas=%+v", d.Mode, d.Env.Now(), d.Env.Events(), d.Platform.Stats())
	for _, n := range d.Net.Nodes() {
		sent, recv, dr, dw := n.Stats()
		fmt.Fprintf(&b, " node=%d/%d/%d/%d", sent, recv, dr, dw)
	}
	gets, puts, shadows, br, bw := d.Store.Stats()
	fmt.Fprintf(&b, " rsds=%d/%d/%d/%d/%d", gets, puts, shadows, br, bw)
	if d.Redis != nil {
		gets, sets := d.Redis.Stats()
		fmt.Fprintf(&b, " imoc=%d/%d", gets, sets)
	}
	if sys := d.Sys; sys != nil {
		good, bad := sys.PredictionCounts()
		fmt.Fprintf(&b, " rclib=%+v kv=%+v agents=%+v pred=%d/%d cache=%d grant=%d",
			sys.RC.Stats(), sys.KV.Stats(), sys.AggregateAgentMetrics(),
			good, bad, sys.CacheBytes(), sys.CacheGrantBytes())
		for _, w := range d.Workers {
			if srv := sys.KV.Server(w); srv != nil {
				alloc, live, cleanings, moved := srv.LogStats()
				fmt.Fprintf(&b, " log=%d/%d/%d/%d", alloc, live, cleanings, moved)
			}
		}
		h := sha256.New()
		if err := trace.ExportChrome(h, trace.Canonicalize(sys.Platform.Tracer.Snapshot())); err != nil {
			return "trace export: " + err.Error()
		}
		fmt.Fprintf(&b, " trace=%x drops=%d", h.Sum(nil), sys.Platform.Tracer.Drops())
	}
	return b.String()
}

// hostClockCells matches what Figure 6 measures on the host CPU
// together with the column rules and padding around it, whose width
// follows from it: a whole run of them is one match, so the masked text
// does not depend on how wide a measured cell happened to print.
var hostClockCells = regexp.MustCompile(`([0-9.]+(µs|ms|s)\b|-+| +)+`)

// firstDiff names the first line at which two outputs part.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d:\n  first: %s\n  now:   %s", i+1, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(a), len(b))
}

// quickSeed3Path pins the text of every experiment at -quick -seed 3,
// fig6's host cells masked: what "byte-identical to the parent" means
// for a change that is not supposed to move a number. Regenerate with:
//
//	OFC_REGEN_GOLDEN=1 go test ./internal/experiments -run TestEveryExperimentRepeats
const quickSeed3Path = "testdata/quick_seed3.golden"

// TestEveryExperimentRepeats runs everything ofc-bench serves under
// -exp, at -quick, once on one P and once on four, and requires the
// two passes to agree on the full report text, on every counter of
// every deployment built on the way and on the trace exports, and the
// report text of each pass to be the committed one. A map range that
// reaches the schedule differs between any two runs; a dependence on
// how the host interleaves simulation processes differs between one P
// and several; a change of behaviour differs from the golden file.
func TestEveryExperimentRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the quick sweep twice")
	}
	obs := observeDeployments(t, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	first := map[string][]string{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var report strings.Builder
		for _, e := range Registry(nil, nil) {
			var r Report
			e.Run(&r, 3, true)
			text := r.String()
			if e.ID == "fig6" {
				text = hostClockCells.ReplaceAllString(text, "#")
			}
			fmt.Fprintf(&report, "== -exp %s -quick -seed 3 ==\n%s\n", e.ID, text)
			got := append(strings.Split(text, "\n"), obs.drain()...)
			if want, seen := first[e.ID]; !seen {
				first[e.ID] = got
			} else if !reflect.DeepEqual(want, got) {
				t.Errorf("-exp %s differs between GOMAXPROCS 1 and %d, %s", e.ID, procs, firstDiff(want, got))
			}
		}
		if os.Getenv("OFC_REGEN_GOLDEN") != "" {
			if err := os.WriteFile(quickSeed3Path, []byte(report.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", quickSeed3Path, report.Len())
			continue
		}
		want, err := os.ReadFile(quickSeed3Path)
		if err != nil {
			t.Fatalf("read golden (regenerate with OFC_REGEN_GOLDEN=1): %v", err)
		}
		if got := report.String(); got != string(want) {
			t.Errorf("report text on GOMAXPROCS %d differs from %s, %s; if the change is intentional regenerate with OFC_REGEN_GOLDEN=1",
				procs, quickSeed3Path, firstDiff(strings.Split(string(want), "\n"), strings.Split(got, "\n")))
		}
	}
}

// reclaimHeavy is cold-miss's shape at test size: 2 GB workers, a
// function that books 1 GB and uses 64 MB, so most of a node is cache
// grant and swings with every sandbox that comes or goes after the
// one-minute keep-alive; a working set several times the grant, read
// by herds of four concurrent invocations per key. Admission, reclaim,
// eviction and the log cleaner work throughout, which no -quick
// experiment makes them do.
func reclaimHeavy(t *testing.T, seed int64) []string {
	cfg := DefaultDeploy()
	cfg.NodeCapacity = 2 << 30
	cfg.Seed = seed
	cfg.Tune = func(o *core.Options) { o.FaaS.KeepAlive = time.Minute }
	d := NewDeployment(ModeOFC, cfg)

	spec := &workload.Spec{
		Name: "cold_read", InputType: "text", Booked: 1 << 30,
		GenArgs: func(*rand.Rand) map[string]float64 { return nil },
		Mem:     func(f, args map[string]float64) int64 { return 64 << 20 },
		Time:    func(f, args map[string]float64) time.Duration { return 10 * time.Millisecond },
		OutSize: func(f, args map[string]float64) int64 { return 1 << 10 },
	}
	rng := rand.New(rand.NewSource(seed))
	pool := workload.NewInputPool(rng, spec.InputType, "reclaim/in", []int64{64 << 10, 512 << 10, 2 << 20, 8 << 20}, 750)
	fns := make([]*faas.Function, 4)
	for i := range fns {
		fns[i] = d.Suite.Build(spec, fmt.Sprintf("reclaim-%d", i), 0)
		d.Register(fns[i])
		d.Pretrain(spec, fns[i], pool, 300)
	}
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(len(pool.Inputs)-1))

	var ends []sim.Time
	failed := 0
	d.Run(func() {
		env := d.Env
		pool.Stage(d.Writer)
		wg := sim.NewWaitGroup(env)
		for end := env.Now() + 5*time.Minute; env.Now() < end; {
			fn, in := fns[rng.Intn(len(fns))], pool.Inputs[zipf.Uint64()]
			for herd := 0; herd < 4; herd++ {
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					if r := d.Platform.Invoke(workload.NewRequest(fn, spec, in, nil)); r.Err != nil {
						failed++
					} else {
						ends = append(ends, r.End)
					}
				})
			}
			env.Sleep(100 * time.Millisecond)
		}
		wg.Wait()
	})
	if am := d.Sys.AggregateAgentMetrics(); am.Evictions == 0 || am.Migrations == 0 {
		t.Fatalf("the scenario reclaimed nothing: %+v", am)
	}
	return []string{
		fmt.Sprintf("hit ratio %.6f, %d failed, replies at %v", d.Sys.RC.InputHitRatio(), failed, ends),
		deploymentDigest(d),
	}
}

// TestReclaimHeavyRepeats: five runs of the reclaim-heavy scenario at
// one seed are the same run.
func TestReclaimHeavyRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the scenario five times")
	}
	observeDeployments(t, true)
	first := reclaimHeavy(t, 5)
	for run := 2; run <= 5; run++ {
		if got := reclaimHeavy(t, 5); !reflect.DeepEqual(first, got) {
			t.Fatalf("run %d differs from run 1, %s", run, firstDiff(first, got))
		}
	}
}
