package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ofc/internal/core"
	"ofc/internal/memctl"
	"ofc/internal/sim"
	"ofc/internal/workload"
)

// PolicyRow is one cell of the memory-control-plane ablation: an
// (eviction policy × slack estimator) pair run against the same
// skewed-reuse workload on an identical deployment.
type PolicyRow struct {
	Eviction string
	Slack    string

	Invocations int
	HitRatio    float64
	P99         time.Duration
	// ReclaimLat is the worst critical-path latency of the end-of-run
	// reclaim probes (one per worker); ReclaimOK counts how many probes
	// the policy could satisfy from its grant.
	ReclaimLat time.Duration
	ReclaimOK  int
	Probes     int
	// SlackBytes is the aggregate slack the estimator settled on.
	SlackBytes int64

	Evictions  int64
	Migrations int64
	WriteBacks int64
}

// policyCellConfig is the shared deployment shape: every cell gets the
// same workers, memory, cadences and workload — only the policy pair
// under test differs, so row deltas are attributable to the policy.
func policyCellConfig(seed int64, spec memctl.Spec) DeployConfig {
	cfg := DefaultDeploy()
	cfg.Workers = 3
	cfg.NodeCapacity = 1 << 30
	cfg.Seed = seed
	cfg.Tune = func(o *core.Options) {
		o.Agent.Policy = spec
		// Compress the paper's cadences (300 s sweeps, 30 min idle) so
		// discretionary eviction and slack adaptation both fire several
		// times inside a minutes-long run. All cells share the
		// compression, so the comparison stays apples-to-apples.
		o.Agent.EvictionEvery = 45 * time.Second
		o.Agent.MaxIdle = 2 * time.Minute
		o.Agent.SlackAdjustEvery = 60 * time.Second
		o.Agent.ChurnSampleEvery = 30 * time.Second
	}
	return cfg
}

// measurePolicyCell runs one policy pair on a fresh deployment: a
// Zipf-skewed stream over a working set sized past the nodes' cache
// grant, then a reclaim probe per worker once the stream ends. The
// function is sharp_resize — IO-bound at MB inputs, so the benefit
// classifier admits its inputs and the cache actually fills.
func measurePolicyCell(evict, slack string, seed int64, quick bool) PolicyRow {
	row := PolicyRow{Eviction: evict, Slack: slack}
	d := NewDeployment(ModeOFC, policyCellConfig(seed, memctl.Spec{Eviction: evict, Slack: slack}))

	spec := workload.SpecByName("sharp_resize")
	fn := d.Suite.Build(spec, "pol", 0)
	d.Register(fn)

	rng := rand.New(rand.NewSource(seed))
	perSize := 150
	runFor := 10 * time.Minute
	if quick {
		perSize = 75
		runFor = 5 * time.Minute
	}
	pool := workload.NewInputPool(rng, spec.InputType, fmt.Sprintf("pol/%s-%s/in", evict, slack),
		[]int64{2 << 20, 4 << 20}, perSize)
	d.Pretrain(spec, fn, pool, 300)
	args := spec.GenArgs(rng)
	// Zipf-skewed reuse: a hot head the cache should hold on to, a long
	// cold tail the policies disagree about.
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pool.Inputs)-1))

	const pace = 150 * time.Millisecond

	var lats []time.Duration

	d.Run(func() {
		env := d.Env
		pool.Stage(d.Writer)
		wg := sim.NewWaitGroup(env)
		for time.Duration(env.Now()) < runFor {
			in := pool.Inputs[int(zipf.Uint64())]
			row.Invocations++
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				r := d.Platform.Invoke(workload.NewRequest(fn, spec, in, args))
				if r.Err == nil {
					lats = append(lats, time.Duration(r.End-r.Start))
				}
			})
			env.Sleep(pace)
		}
		wg.Wait()
		// Scale-down probe: ask each cache-holding node's agent to hand
		// memory back — the §6.4 critical path. The need is sized past
		// the grant's free headroom so the agent must clear 90% of its
		// resident objects; which objects those are is the planner and
		// eviction policy's doing. (A full give-back can fail outright:
		// dirty objects whose write-back is still in flight are not
		// evictable.)
		for _, inv := range d.Platform.Invokers() {
			node := inv.Node()
			used, _ := d.Sys.KV.Usage(node)
			if used < 8<<20 {
				continue // nothing resident worth probing
			}
			need := inv.CacheGrant() - used/10
			row.Probes++
			if lat, err := d.Sys.Gov.Reclaim(node, need); err == nil {
				row.ReclaimOK++
				if lat > row.ReclaimLat {
					row.ReclaimLat = lat
				}
			}
		}
	})

	row.HitRatio = d.Sys.RC.InputHitRatio()
	row.P99 = p99(lats)
	for _, a := range d.Sys.Agents() {
		row.SlackBytes += a.Slack()
	}
	am := d.Sys.AggregateAgentMetrics()
	row.Evictions = am.Evictions
	row.Migrations = am.Migrations
	row.WriteBacks = am.WriteBacks
	return row
}

// Policies sweeps the memctl ablation grid: every requested eviction
// policy crossed with every requested slack estimator (nil selects the
// full registry), each cell an independent deployment on the Parallel
// pool. Rows come back in grid order.
func Policies(seed int64, quick bool, evictions, slacks []string) (*Table, []PolicyRow) {
	if len(evictions) == 0 {
		evictions = memctl.EvictionPolicies()
	}
	if len(slacks) == 0 {
		slacks = memctl.SlackEstimators()
	}
	type cell struct{ e, s string }
	var cells []cell
	for _, e := range evictions {
		for _, s := range slacks {
			cells = append(cells, cell{e, s})
		}
	}
	rows := Parallel(len(cells), 0, func(i int) PolicyRow {
		return measurePolicyCell(cells[i].e, cells[i].s, seed, quick)
	})
	t := &Table{
		Title:   "Policy ablation — eviction × slack grid, identical Zipf workload per cell",
		Headers: []string{"Eviction", "Slack", "Invocations", "Hit ratio", "p99", "Reclaim", "Probes OK", "Slack", "Evict", "Migr", "WB"},
	}
	for _, r := range rows {
		t.Add(r.Eviction, r.Slack, fmt.Sprintf("%d", r.Invocations), pct(r.HitRatio),
			fmtDur(r.P99), fmtDur(r.ReclaimLat), fmt.Sprintf("%d/%d", r.ReclaimOK, r.Probes),
			fmtSize(r.SlackBytes), fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%d", r.Migrations), fmt.Sprintf("%d", r.WriteBacks))
	}
	t.Note = "default cell is threshold/window (the paper's §6.3/§6.4 control plane); see DESIGN.md §13 for the reading"
	return t, rows
}
