package experiments

import (
	"testing"
	"time"
)

func TestFigure3Shape(t *testing.T) {
	_, rows := Figure3(1)
	var s3Small, redisSmall, s3MR float64
	for _, r := range rows {
		if r.Workload == "sharp_resize" && r.Size == 128<<10 {
			if r.Backend == "S3" {
				s3Small = r.ELShare()
			} else {
				redisSmall = r.ELShare()
			}
		}
		if r.Workload == "map_reduce" && r.Size == 30<<20 && r.Backend == "S3" {
			s3MR = r.ELShare()
		}
	}
	// Paper: E&L up to 97% for the 128 kB image on S3; ≈52% for 30 MB
	// map_reduce; negligible on Redis.
	if s3Small < 0.80 {
		t.Errorf("sharp_resize 128kB S3 E&L share %.2f, want dominant (paper 0.97)", s3Small)
	}
	if redisSmall > 0.30 {
		t.Errorf("sharp_resize 128kB Redis E&L share %.2f, want negligible", redisSmall)
	}
	if s3MR < 0.25 || s3MR > 0.75 {
		t.Errorf("map_reduce 30MB S3 E&L share %.2f, paper ≈0.52", s3MR)
	}
}

func TestFigure7SingleStageShape(t *testing.T) {
	size := int64(16 << 10)
	get := func(sc Scenario) Figure7Row { return measureSingle("wand_edge", size, sc, 1) }
	swift := get(ScenSwift)
	redis := get(ScenRedis)
	lh := get(ScenLH)
	m := get(ScenM)
	rh := get(ScenRH)

	// Headline: OFC-LH cuts wand_edge(16kB) by up to ~82% vs Swift.
	imp := improvement(swift.Total(), lh.Total())
	if imp < 0.60 {
		t.Errorf("LH improvement %.2f vs Swift, paper ≈0.82 (swift=%v lh=%v)", imp, swift.Total(), lh.Total())
	}
	// OFC-LH lands near OWK-Redis. (The paper reports -3%..+2% across
	// its workload mix; for a small-T function the constant ≈11 ms
	// shadow PUT in OFC's Load phase is a larger share, so we allow a
	// wider band here and check the tight band on the macro mix.)
	diff := float64(lh.Total()-redis.Total()) / float64(redis.Total())
	if diff < -0.45 || diff > 0.45 {
		t.Errorf("LH vs Redis diff %.2f (lh=%v redis=%v)", diff, lh.Total(), redis.Total())
	}
	// Miss still beats Swift (write-back of outputs).
	if m.Total() >= swift.Total() {
		t.Errorf("M (%v) not better than Swift (%v)", m.Total(), swift.Total())
	}
	// Remote hit close to local hit, worse or equal.
	if rh.Total() < lh.Total() {
		t.Errorf("RH (%v) faster than LH (%v)", rh.Total(), lh.Total())
	}
	if float64(rh.Total()) > float64(lh.Total())*1.4 {
		t.Errorf("RH (%v) far above LH (%v), paper ≤ +12.76%%", rh.Total(), lh.Total())
	}
	// Extract phases: LH ≈ cache, M ≈ RSDS.
	if lh.E > 5*time.Millisecond {
		t.Errorf("LH extract %v, want cache-hit scale", lh.E)
	}
	if m.E < 35*time.Millisecond {
		t.Errorf("M extract %v, want RSDS scale", m.E)
	}
}

func TestFigure7PipelineShape(t *testing.T) {
	pb := fig7Pipelines()[0] // map_reduce
	size := int64(10 << 20)
	swift := measurePipeline(pb, size, ScenSwift, 1)
	lh := measurePipeline(pb, size, ScenLH, 1)
	redis := measurePipeline(pb, size, ScenRedis, 1)
	imp := improvement(swift.Total(), lh.Total())
	if imp < 0.30 {
		t.Errorf("map_reduce LH improvement %.2f vs Swift, paper up to 0.60 (swift=%v lh=%v)", imp, swift.Total(), lh.Total())
	}
	diff := float64(lh.Total()-redis.Total()) / float64(redis.Total())
	if diff > 0.30 {
		t.Errorf("pipeline LH (%v) much slower than Redis (%v)", lh.Total(), redis.Total())
	}
}

func TestFigure8Shape(t *testing.T) {
	_, rows := Figure8(1)
	byScen := map[string][]Figure8Row{}
	for _, r := range rows {
		byScen[r.Scenario] = append(byScen[r.Scenario], r)
	}
	for _, r := range byScen["Sc0"] {
		if r.ScalingTime != 0 {
			t.Errorf("Sc0 scaling time %v, want 0", r.ScalingTime)
		}
	}
	for _, r := range byScen["Sc1"] {
		// Paper: ≈289µs constant.
		if r.ScalingTime < 100*time.Microsecond || r.ScalingTime > 2*time.Millisecond {
			t.Errorf("Sc1 scaling %v, want ≈289µs", r.ScalingTime)
		}
	}
	for _, r := range byScen["Sc2"] {
		if r.ScalingTime <= 0 {
			t.Errorf("Sc2 scaling %v, want >0 (migration)", r.ScalingTime)
		}
	}
	for _, r := range byScen["Sc3"] {
		if r.ScalingTime <= 0 {
			t.Errorf("Sc3 scaling %v, want >0 (eviction)", r.ScalingTime)
		}
	}
}

func TestMigrationSeriesShape(t *testing.T) {
	_, series := MigrationSeries(1)
	if series[8<<20] >= series[1<<30] {
		t.Errorf("migration time not increasing: 8MB=%v 1GB=%v", series[8<<20], series[1<<30])
	}
	// Rough magnitude: 1 GB within [5ms, 80ms] (paper 13.5 ms; ours
	// includes per-object promotion overhead).
	if series[1<<30] < 5*time.Millisecond || series[1<<30] > 80*time.Millisecond {
		t.Errorf("1GB migration %v, paper 13.5ms", series[1<<30])
	}
}

func TestMacroShortRun(t *testing.T) {
	cfg := DefaultMacroConfig()
	cfg.Window = 6 * time.Minute
	swift := cfg
	swift.Mode = ModeSwift
	sres := RunMacro(swift)
	ofc := cfg
	ofc.Mode = ModeOFC
	ores := RunMacro(ofc)

	if len(sres.Reports) != 8 || len(ores.Reports) != 8 {
		t.Fatalf("tenants: swift=%d ofc=%d", len(sres.Reports), len(ores.Reports))
	}
	var invocations int
	for i, sr := range sres.Reports {
		or := ores.Reports[i]
		invocations += or.Invocations
		if or.Failures > 0 {
			t.Errorf("tenant %s: %d failed invocations under OFC", or.Name, or.Failures)
		}
		if sr.Invocations == 0 {
			continue
		}
	}
	if invocations < 10 {
		t.Fatalf("only %d invocations in the window", invocations)
	}
	// Aggregate improvement must be positive and material.
	imp := improvement(sres.TotalExec(), ores.TotalExec())
	if imp < 0.15 {
		t.Errorf("macro improvement %.2f (swift=%v ofc=%v), paper 23.9–79.8%%", imp, sres.TotalExec(), ores.TotalExec())
	}
	if ores.HitRatio < 0.5 {
		t.Errorf("hit ratio %.2f, paper >0.93", ores.HitRatio)
	}
	if len(ores.CacheSeries) == 0 {
		t.Error("no Figure 10 cache series")
	}
	if ores.Agent.ScaleUps == 0 {
		t.Error("no cache scale-ups recorded")
	}
	if ores.Ephemeral == 0 {
		t.Error("no ephemeral data recorded")
	}
}

func TestTable1Quick(t *testing.T) {
	cfg := Table1Config{SamplesPerFunction: 150, Folds: 4, ForestSize: 8, Seed: 1}
	tab := Table1(cfg)
	if len(tab.Rows) != 12 {
		t.Fatalf("rows=%d, want 12 (4 algos × 3 intervals)", len(tab.Rows))
	}
}

func TestMaturationQuick(t *testing.T) {
	_, res := Maturation(1)
	if len(res.PerFunction) != 19 {
		t.Fatalf("functions=%d", len(res.PerFunction))
	}
	if res.Median > 450 {
		t.Errorf("median maturation %d, paper 100", res.Median)
	}
	if res.P95 > 650 {
		t.Errorf("p95 maturation %d, paper <450", res.P95)
	}
}

func TestFigure5Quick(t *testing.T) {
	_, res := Figure5(200, 1)
	if res.WithinThree < 0.7 {
		t.Errorf("overpredictions within 3 intervals: %.2f, paper 0.90", res.WithinThree)
	}
	if res.AvgOverWasteMB > 80 {
		t.Errorf("mean overprediction waste %.1fMB, paper 26.8MB", res.AvgOverWasteMB)
	}
}

func TestFigure6Quick(t *testing.T) {
	_, res := Figure6(300, 1)
	j48 := res["J48/16MB"]
	forest := res["RandomForest/16MB"]
	if j48.Median <= 0 {
		t.Fatal("no J48 latency")
	}
	// Shapes: J48 well under 1ms (target: prediction under 1ms, §5.1.1)
	// and much faster than RandomForest.
	if j48.Median > time.Millisecond {
		t.Errorf("J48 median %v, want ≪1ms", j48.Median)
	}
	if forest.Median < j48.Median {
		t.Errorf("forest (%v) faster than J48 (%v)?", forest.Median, j48.Median)
	}
}

func TestCacheBenefitQuick(t *testing.T) {
	_, res := CacheBenefit(200, 1)
	if res.F1 < 0.9 {
		t.Errorf("benefit F1=%.3f, paper 0.987", res.F1)
	}
}

func TestFigure2Produces(t *testing.T) {
	tab := Figure2(100, 1)
	if len(tab.Rows) != 100 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestAblationWriteback(t *testing.T) {
	tab := AblationWriteback(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestAblationMigrationSpeedup(t *testing.T) {
	tab := AblationMigration(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestAblationRouting(t *testing.T) {
	tab := AblationRouting(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestAblationIntervalBump(t *testing.T) {
	tab := AblationIntervalBump(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// On unseen inputs the bump must not retry more often than raw.
	var bumpRetries, rawRetries string
	for _, r := range tab.Rows {
		if r[1] == "unseen" {
			if r[0] == "raw prediction" {
				rawRetries = r[3]
			} else {
				bumpRetries = r[3]
			}
		}
	}
	if bumpRetries > rawRetries {
		t.Errorf("bump retries %s > raw %s on unseen inputs", bumpRetries, rawRetries)
	}
}

func TestResilience(t *testing.T) {
	tab, healthy := Resilience(1)
	if !healthy {
		t.Errorf("resilience run unhealthy:\n%s", tab)
	}
}

func TestChunkingExtension(t *testing.T) {
	_, out := ChunkingExtension(1)
	if out[true] >= out[false] {
		t.Errorf("chunking did not help: on=%v off=%v", out[true], out[false])
	}
	if out[true] > out[false]/2 {
		t.Errorf("chunking saving too small: on=%v off=%v", out[true], out[false])
	}
}

func TestStorePlane(t *testing.T) {
	tab, healthy := StorePlane(1)
	if !healthy {
		t.Errorf("store plane acceptance failed:\n%s", tab)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.Add("x,y", 3*time.Millisecond)
	csv := tab.CSV()
	want := "a,b\n\"x,y\",3.00ms\n"
	if csv != want {
		t.Errorf("csv=%q, want %q", csv, want)
	}
}

// TestTablePadsByCharacter: a µs cell and an ASCII cell in one column
// line up, so the column after them starts at the same character.
func TestTablePadsByCharacter(t *testing.T) {
	tab := &Table{Title: "t", Headers: []string{"Latency", "Next"}}
	tab.Add(12*time.Microsecond, "a")
	tab.Add("1234567", "b")
	want := "== t ==\n" +
		"Latency  Next\n" +
		"-------  ----\n" +
		"12.00µs  a   \n" +
		"1234567  b   \n"
	if got := tab.String(); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

func TestAblationKeepAliveShape(t *testing.T) {
	tab := AblationKeepAlive(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Cold starts must not increase with longer keep-alive.
	var colds []string
	for _, r := range tab.Rows {
		colds = append(colds, r[2])
	}
	if !(colds[0] >= colds[1] && colds[1] >= colds[2]) {
		t.Errorf("cold starts not monotone: %v", colds)
	}
}

func TestAblationConsistencyShape(t *testing.T) {
	tab := AblationConsistency(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "true" || tab.Rows[1][3] != "false" {
		t.Errorf("eager flags wrong: %v", tab.Rows)
	}
}

func TestFigure7Replicated(t *testing.T) {
	tab := Figure7Replicated([]int64{1, 2, 3})
	if len(tab.Rows) != 10 { // 6 single-stage + 4 pipelines (quick grid)
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestSummaryScorecard(t *testing.T) {
	tab := Summary(1)
	if len(tab.Rows) < 10 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "" {
			t.Errorf("empty measurement for %q", row[0])
		}
	}
}

func TestConstantsTable(t *testing.T) {
	tab := Constants(1)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}
