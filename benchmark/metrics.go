package main

import (
	"encoding/json"
	"strings"
)

// metricDef describes one reported metric. The table below is the
// single list of names; BENCHMARK.json repeats name, unit, direction
// and bound from it (a test compares the two).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 for per-layer metrics, which have none.
	bound float64
	// clock is "host" for values that depend on the host or the Go
	// runtime and "virtual" for values that repeat exactly at a fixed
	// seed.
	clock string
}

// endToEnd lists what a user of the system (a tenant on the virtual
// side, someone running the simulator on the host side) would see. A
// bound is about three times the widest spread (inter-quartile distance
// over median, ten seeds) seen on any workload, capped at the driver's
// 0.25; README.md has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host"},
	{"sim_inv_per_s", "inv/s", "higher", 0.25, "host"},
	{"host_alloc_kb_per_inv", "KB/inv", "lower", 0.15, "host"},
	{"virt_inv_p50_ms", "ms", "lower", 0.25, "virtual"},
	{"virt_inv_p99_ms", "ms", "lower", 0.25, "virtual"},
	{"virt_slo_ok_frac", "fraction", "higher", 0.08, "virtual"},
	{"virt_speedup_x", "x", "higher", 0.15, "virtual"},
	{"cache_hit_ratio", "fraction", "higher", 0.25, "virtual"},
}

// perLayer lists the metrics of single layers, printed by the traced
// run. The first block is the end-to-end quantities that can be 0 and
// so cannot carry a relative bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(clock, better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better, clock: clock})
		}
	}
	add("virtual", "lower", "fraction", "virt_slo_miss_frac", "failed_frac")
	add("virtual", "higher", "%", "virt_improvement_pct")
	add("virtual", "lower", "B/inv", "virt_rsds_bytes_per_inv")

	add("virtual", "lower", "1/inv", "sim.events_per_inv")
	add("host", "higher", "1/s", "sim.events_per_host_s")
	add("host", "higher", "s/s", "sim.virt_s_per_host_s")
	add("host", "lower", "fraction", "sim.repeat_max_rel_diff")

	add("virtual", "lower", "B/inv", "simnet.net_bytes_per_inv", "simnet.disk_bytes_per_inv")

	add("virtual", "lower", "1/inv", "kvstore.coord_rpcs_per_inv", "kvstore.server_rpcs_per_inv")
	add("virtual", "lower", "count", "kvstore.promotions")
	add("virtual", "higher", "B", "kvstore.used_bytes_peak")

	add("virtual", "lower", "1/inv", "store.reads_per_inv", "store.writes_per_inv")
	add("virtual", "higher", "keys", "store.batch_keys_per_read")
	add("virtual", "lower", "count", "store.read_errs", "store.write_errs", "store.retries")
	add("virtual", "lower", "us", "store.virt_p99_us")

	add("virtual", "lower", "1/inv", "objstore.gets_per_inv", "objstore.puts_per_inv", "objstore.shadows_per_inv")
	add("virtual", "lower", "B/inv", "objstore.bytes_read_per_inv", "objstore.bytes_written_per_inv")

	add("virtual", "higher", "fraction", "rclib.local_hit_frac", "rclib.remote_hit_frac")
	add("virtual", "lower", "fraction", "rclib.miss_frac")
	add("virtual", "higher", "fraction", "rclib.input_hit_ratio")
	add("virtual", "higher", "1/miss", "rclib.admissions_per_miss")
	add("virtual", "lower", "count", "rclib.admit_vetoes")
	add("virtual", "lower", "fraction", "rclib.dup_fetch_frac")
	add("virtual", "higher", "fraction", "rclib.miss_coalesced_frac")
	add("virtual", "lower", "1/put", "rclib.writebacks_per_put", "rclib.bypass_writes_per_put")
	add("virtual", "lower", "count", "rclib.fallback_reads")
	add("virtual", "lower", "B", "rclib.ephemeral_bytes")

	add("virtual", "lower", "count", "cacheagent.scale_ups", "cacheagent.scale_downs_noevict",
		"cacheagent.scale_downs_migrate", "cacheagent.scale_downs_evict")
	add("virtual", "lower", "ms", "cacheagent.scale_down_virt_ms_total")
	add("virtual", "lower", "count", "cacheagent.periodic_evictions", "cacheagent.reclaim_failures")
	add("virtual", "higher", "B", "cacheagent.grant_bytes_mean", "cacheagent.cache_bytes_mean")
	add("virtual", "higher", "fraction", "cacheagent.fill_frac")
	add("virtual", "lower", "fraction", "cacheagent.over_grant_frac")

	add("virtual", "higher", "fraction", "predictor.memo_hit_frac", "predictor.good_frac")
	add("virtual", "lower", "count", "predictor.retrains")

	add("virtual", "lower", "fraction", "faas.cold_start_frac")
	add("virtual", "lower", "count", "faas.oom_kills", "faas.retries", "faas.rescues", "faas.swaps", "faas.reroutes", "faas.shed")
	add("virtual", "lower", "ms", "faas.queue_virt_ms_p50", "faas.queue_virt_ms_p99", "faas.extract_virt_ms_mean",
		"faas.transform_virt_ms_mean", "faas.load_virt_ms_mean", "faas.scaledown_virt_ms_mean")
	add("virtual", "lower", "ratio", "faas.backlog_growth")

	add("host", "lower", "1/inv", "host.mallocs_per_inv")
	add("host", "lower", "MB", "host.peak_heap_mb")
	add("host", "lower", "%", "host.gc_cpu_pct")
	add("host", "lower", "count", "host.goroutines_peak")

	add("virtual", "lower", "ms", "loadgen.late_virt_ms_max")
	add("virtual", "higher", "count", "loadgen.arrivals", "loadgen.inv_attempted")

	// Traced repetition.
	add("virtual", "lower", "ms", "trace.virt_self_ms.invoke_queue", "trace.virt_self_ms.extract",
		"trace.virt_self_ms.transform", "trace.virt_self_ms.load", "trace.virt_self_ms.scaledown")
	add("host", "lower", "us/inv", "trace.host_self_us_per_inv.advise", "trace.host_self_us_per_inv.route",
		"trace.host_self_us_per_inv.observe")
	add("virtual", "lower", "1/inv", "trace.spans_per_inv")
	add("virtual", "lower", "count", "trace.drops")
	add("host", "lower", "%", "trace.overhead_pct")
	for _, k := range cpuShares {
		add("host", "lower", "%", "host.cpu_pct."+k)
	}
	for _, r := range ladderRungs {
		add("host", "lower", "ns/op", "ladder."+r+".ns_per_op")
		add("host", "lower", "allocs/op", "ladder."+r+".allocs_per_op")
	}
	return out
}

// tracedOnly reports whether a per-layer metric comes from the traced
// repetition, the CPU profile or the ladder, and so is absent from an
// untraced run.
func tracedOnly(name string) bool {
	return strings.HasPrefix(name, "trace.") || strings.HasPrefix(name, "host.cpu_pct.") || strings.HasPrefix(name, "ladder.")
}

// runSeconds is BENCHMARK.json's run_seconds: the host seconds of timed
// repetitions the driver asks of one run.
const runSeconds = 10

// describe renders BENCHMARK.json from the tables above.
func describe() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(b, '\n')
}
