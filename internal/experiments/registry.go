package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// Report collects what one experiment prints. Each run gets its own, so
// experiments can execute concurrently and still print in order.
type Report struct {
	bytes.Buffer
	// CSV renders tables as CSV instead of aligned text.
	CSV bool
}

// Emit renders a result table into the report.
func (r *Report) Emit(t *Table) {
	if r.CSV {
		r.WriteString(t.CSV())
		return
	}
	fmt.Fprintln(r, t)
}

// Printf appends free-form text to the report.
func (r *Report) Printf(format string, args ...interface{}) {
	fmt.Fprintf(r, format, args...)
}

// Experiment is one id cmd/ofc-bench serves under -exp: what it prints
// at a seed, full size or quick.
type Experiment struct {
	ID   string
	Desc string
	Run  func(r *Report, seed int64, quick bool)
}

// Registry lists every experiment in report order. evictions and slacks
// scope the policies grid (nil selects the full memctl registry).
func Registry(evictions, slacks []string) []Experiment {
	return []Experiment{
		{"summary", "one-screen reproduction scorecard (paper vs measured)", func(o *Report, seed int64, quick bool) {
			o.Emit(Summary(seed))
		}},
		{"fig2", "motivation: memory vs input size and sigma scatter", func(o *Report, seed int64, quick bool) {
			n := 500
			if quick {
				n = 100
			}
			tab := Figure2(n, seed)
			// The full scatter is long; print summary bands.
			o.Printf("%s\n", summarizeFig2(tab))
		}},
		{"fig3", "motivation: ETL split, S3-like vs Redis-like", func(o *Report, seed int64, quick bool) {
			tab, _ := Figure3(seed)
			o.Emit(tab)
		}},
		{"table1", "ML accuracy: 4 algorithms × {32,16,8} MB intervals", func(o *Report, seed int64, quick bool) {
			cfg := DefaultTable1Config()
			cfg.Seed = seed
			if quick {
				cfg.SamplesPerFunction, cfg.Folds, cfg.ForestSize = 150, 4, 8
			}
			o.Emit(Table1(cfg))
		}},
		{"benefit", "caching-benefit classifier precision/recall/F1", func(o *Report, seed int64, quick bool) {
			n := 400
			if quick {
				n = 150
			}
			tab, _ := CacheBenefit(n, seed)
			o.Emit(tab)
		}},
		{"fig5", "prediction-error distribution (J48, 16 MB)", func(o *Report, seed int64, quick bool) {
			n := 450
			if quick {
				n = 150
			}
			tab, _ := Figure5(n, seed)
			o.Emit(tab)
		}},
		{"fig6", "prediction latency (host time)", func(o *Report, seed int64, quick bool) {
			tab, _ := Figure6(450, seed)
			o.Emit(tab)
		}},
		{"maturation", "model maturation quickness", func(o *Report, seed int64, quick bool) {
			tab, _ := Maturation(seed)
			o.Emit(tab)
		}},
		{"fig7", "cache benefits: Swift/Redis/OFC{LH,M,RH} sweep", func(o *Report, seed int64, quick bool) {
			tab, _ := Figure7(quick, seed)
			o.Emit(tab)
		}},
		{"fig7x5", "Figure 7 replicated across 5 seeds (paper's averaging)", func(o *Report, seed int64, quick bool) {
			seeds := []int64{seed, seed + 1, seed + 2, seed + 3, seed + 4}
			o.Emit(Figure7Replicated(seeds))
		}},
		{"fig8", "cache down-scaling impact (Sc0–Sc3)", func(o *Report, seed int64, quick bool) {
			tab, _ := Figure8(seed)
			o.Emit(tab)
		}},
		{"migration", "optimized migration time vs aggregate size", func(o *Report, seed int64, quick bool) {
			tab, _ := MigrationSeries(seed)
			o.Emit(tab)
		}},
		{"fig9", "macro: 8 tenants × 3 profiles (plus fig10 + table2)", func(o *Report, seed int64, quick bool) {
			window := 30 * time.Minute
			if quick {
				window = 8 * time.Minute
			}
			tab, runs := Figure9(window, seed)
			o.Emit(tab)
			o.Emit(Figure10(runs))
			o.Emit(Table2(runs))
		}},
		{"macro24", "macro with 24 tenants (contention)", func(o *Report, seed int64, quick bool) {
			window := 30 * time.Minute
			if quick {
				window = 8 * time.Minute
			}
			tab, _, _ := Macro24(window, seed)
			o.Emit(tab)
		}},
		{"ablations", "design-choice ablations (write-back, migration, routing, bump)", func(o *Report, seed int64, quick bool) {
			o.Emit(AblationWriteback(seed))
			o.Emit(AblationMigration(seed))
			o.Emit(AblationRouting(seed))
			o.Emit(AblationIntervalBump(seed))
			o.Emit(AblationKeepAlive(seed))
			o.Emit(AblationConsistency(seed))
		}},
		{"constants", "micro constants (§6.4/§7.2.1) measured end to end", func(o *Report, seed int64, quick bool) {
			o.Emit(Constants(seed))
		}},
		{"resilience", "worker fail-stop + RAMCloud-style recovery", func(o *Report, seed int64, quick bool) {
			tab, _ := Resilience(seed)
			o.Emit(tab)
		}},
		{"chaos", "kill-one-node-per-minute chaos drill (graceful degradation)", func(o *Report, seed int64, quick bool) {
			tab, res := Chaos(seed, quick)
			o.Emit(tab)
			for _, line := range res.Applied {
				o.Printf("  event: %s\n", line)
			}
		}},
		{"overload", "5x tenant spike + mid-spike crash: admission, budgets, degradation states", func(o *Report, seed int64, quick bool) {
			tab, res := Overload(seed, quick)
			o.Emit(tab)
			o.Printf("  healthy: %v\n", res.Healthy())
		}},
		{"policies", "memctl ablation: eviction × slack policy grid", func(o *Report, seed int64, quick bool) {
			tab, _ := Policies(seed, quick, evictions, slacks)
			o.Emit(tab)
		}},
		{"chunking", "large-object striping extension (§6.1 future work)", func(o *Report, seed int64, quick bool) {
			tab, _ := ChunkingExtension(seed)
			o.Emit(tab)
		}},
		{"storeplane", "storage data plane: batched multi-object ops", func(o *Report, seed int64, quick bool) {
			tab, _ := StorePlane(seed)
			o.Emit(tab)
		}},
		{"trace", "deterministic end-to-end span drill: per-phase latency breakdown", func(o *Report, seed int64, quick bool) {
			tab, res := TraceDrill(seed)
			o.Emit(tab)
			o.Printf("  spans: %d  dropped: %d\n", len(res.Spans), res.Drops)
		}},
	}
}

// summarizeFig2 compresses the scatter into per-band min/max rows.
func summarizeFig2(tab *Table) string {
	type band struct{ lo, hi int64 }
	var sb strings.Builder
	sb.WriteString("== Figure 2 — wand_blur memory bands ==\n")
	sb.WriteString("(full scatter: run the Figure2 API; summary below)\n")
	bands := []struct {
		name     string
		from, to float64
	}{
		{"size < 1MB", 0, 1 << 20}, {"1–3MB", 1 << 20, 3 << 20}, {"3–6MB", 3 << 20, 6 << 20},
	}
	for _, bd := range bands {
		b := band{lo: 1 << 62, hi: 0}
		for _, row := range tab.Rows {
			var size float64
			var mem int64
			fmt.Sscan(row[0], &size)
			fmt.Sscan(row[2], &mem)
			if size >= bd.from && size < bd.to {
				if mem < b.lo {
					b.lo = mem
				}
				if mem > b.hi {
					b.hi = mem
				}
			}
		}
		fmt.Fprintf(&sb, "%-12s memory %d..%d MB\n", bd.name, b.lo, b.hi)
	}
	return sb.String()
}
