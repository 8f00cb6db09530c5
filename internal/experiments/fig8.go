package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/workload"
)

// Figure8Row is one scaling-impact measurement.
type Figure8Row struct {
	Size        int64
	Scenario    string // Sc0..Sc3
	ScalingTime time.Duration
	CgroupTime  time.Duration
	ExecTime    time.Duration
}

// Figure8 reproduces §7.2.1's negative-impact study on wand_sepia:
// Sc0 no cache shrink, Sc1 shrink without data movement, Sc2 shrink
// with migration-by-promotion, Sc3 shrink with eviction.
func Figure8(seed int64) (*Table, []Figure8Row) {
	var rows []Figure8Row
	spec := workload.SpecByName("wand_sepia")
	sizes := []int64{1 << 10, 16 << 10, 512 << 10, 3072 << 10}
	for _, size := range sizes {
		for _, scen := range []string{"Sc0", "Sc1", "Sc2", "Sc3"} {
			rows = append(rows, runFig8Cell(spec, size, scen, seed))
		}
	}
	t := &Table{
		Title:   "Figure 8 — impact of cache down-scaling on wand_sepia",
		Headers: []string{"Input", "Scenario", "Scaling", "cgroup", "Exec total"},
		Note:    "paper: Sc1 ≈ 289µs, Sc3 ≈ 373µs, Sc2 grows with migrated bytes; cgroup ≈ 23.8ms",
	}
	for _, r := range rows {
		t.Add(fmtSize(r.Size), r.Scenario, r.ScalingTime, r.CgroupTime, r.ExecTime)
	}
	return t, rows
}

func runFig8Cell(spec *workload.Spec, size int64, scen string, seed int64) Figure8Row {
	cfg := DefaultDeploy()
	cfg.Seed = seed
	cfg.NodeCapacity = 4 << 30
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	fn := d.Suite.Build(spec, "fig8", 0)
	d.Register(fn)
	rng := rand.New(rand.NewSource(seed))
	pool := workload.NewInputPool(rng, "image", fmt.Sprintf("f8/%s/%d", scen, size), []int64{size}, 1)
	d.Pretrain(spec, fn, pool, 400)
	args := spec.GenArgs(rng)
	row := Figure8Row{Size: size, Scenario: scen, CgroupTime: faas.ResizeLatency}

	w0 := d.Workers[0]
	d.Env.Go(func() {
		pool.Stage(d.Writer)
		// Hoard *all* free memory into the cache on every node (no
		// slack), so that any sandbox creation must shrink the cache —
		// the condition Figure 8 studies.
		for _, inv := range sys.Platform.Invokers() {
			inv.SetCacheGrant(inv.Capacity())
		}
		inv := sys.Platform.Invokers()[0]
		switch scen {
		case "Sc2", "Sc3":
			// Fill worker 0's cache so a shrink must move data.
			grant := inv.CacheGrant()
			var filled int64
			for i := 0; filled < grant-32<<20; i++ {
				key := fmt.Sprintf("f8fill/%d", i)
				if _, err := sys.KV.Write(sys.CtrlNode, key, kvstore.Synthetic(8<<20), nil, w0); err != nil {
					break
				}
				filled += 8 << 20
			}
			if scen == "Sc3" {
				// No node can take over a master copy: eviction only.
				for _, inv := range sys.Platform.Invokers()[1:] {
					inv.SetCacheGrant(0)
				}
			}
		}
		in := pool.Inputs[0]
		req := func() *faas.Request { return workload.NewRequest(fn, spec, in, args) }
		restore := d.PinTo(w0)
		defer restore()
		if scen == "Sc0" {
			// First run right-sizes a sandbox; the measured second run
			// needs no cache scaling at all.
			sys.Platform.Invoke(req())
		}
		res := sys.Platform.Invoke(req())
		row.ScalingTime = res.ScaleDownTime
		// "Overall function execution time" as the paper plots it: the
		// ETL phases plus the scaling and cgroup overheads (sandbox
		// creation/cold-start is a separate axis in their setup).
		row.ExecTime = res.Extract + res.Transform + res.Load + row.ScalingTime + row.CgroupTime
		sys.Env.Stop()
	})
	d.Env.Run()
	return row
}

// MigrationSeries measures the optimized migration cost against the
// aggregate size moved (paper: 0.18 ms for 8 MB up to 13.5 ms for
// 1 GB), promoting 8 MB objects one by one.
func MigrationSeries(seed int64) (*Table, map[int64]time.Duration) {
	cfg := DefaultDeploy()
	cfg.Seed = seed
	d := NewDeployment(ModeOFC, cfg)
	sys := d.Sys
	out := map[int64]time.Duration{}
	sizes := []int64{8 << 20, 64 << 20, 256 << 20, 512 << 20, 1 << 30}
	d.Env.Go(func() {
		for _, inv := range sys.Platform.Invokers() {
			inv.SetCacheGrant(4 << 30)
		}
		count := 0
		for _, total := range sizes {
			n := int(total / (8 << 20))
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("mig/%d/%d", total, i)
				count++
				if _, err := sys.KV.Write(sys.CtrlNode, keys[i], kvstore.Synthetic(8<<20), nil, d.Workers[0]); err != nil {
					panic(err)
				}
			}
			start := sys.Env.Now()
			for _, k := range keys {
				if err := sys.KV.MigrateToBackup(k, 0); err != nil {
					panic(err)
				}
			}
			out[total] = time.Duration(sys.Env.Now() - start)
			for _, k := range keys {
				sys.KV.Evict(k, 0)
			}
		}
		sys.Env.Stop()
	})
	d.Env.Run()
	t := &Table{
		Title:   "§7.2.1 — optimized migration time vs aggregate size",
		Headers: []string{"Aggregate", "Time", "Paper"},
	}
	paper := map[int64]string{8 << 20: "0.18ms", 64 << 20: "1.2ms", 256 << 20: "3.8ms", 512 << 20: "7.5ms", 1 << 30: "13.5ms"}
	for _, s := range sizes {
		t.Add(fmtSize(s), out[s], paper[s])
	}
	return t, out
}
