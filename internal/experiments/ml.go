package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ofc/internal/core"
	"ofc/internal/faas"
	"ofc/internal/metrics"
	"ofc/internal/mltree"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/workload"
)

// mlSizesFor picks the input-size grid per media type (the FaaSLoad
// dataset shapes).
func mlSizesFor(inputType string) []int64 {
	switch inputType {
	case "image":
		return []int64{1 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 1 << 20, 3 << 20}
	case "audio":
		return []int64{256 << 10, 1 << 20, 4 << 20, 8 << 20}
	case "video":
		return []int64{2 << 20, 5 << 20, 8 << 20}
	default:
		return []int64{512 << 10, 2 << 20, 5 << 20, 10 << 20}
	}
}

// functionDataset builds the offline dataset of one function at the
// given interval size.
func functionDataset(spec *workload.Spec, n int, iv core.Intervals, seed int64) *mltree.Dataset {
	rng := rand.New(rand.NewSource(seed))
	su := workload.NewSuite()
	fn := su.Build(spec, "ml", 0)
	pool := workload.NewInputPool(rng, spec.InputType, "ml/"+spec.Name, mlSizesFor(spec.InputType), 4)
	samples := workload.TrainingSamples(spec, fn, pool, n, rng, objstore.SwiftProfile())
	schema := core.NewFeatureSchema(fn)
	d := mltree.NewDataset(schema.Attributes(), iv.ClassNames())
	for _, s := range samples {
		d.Add(s.Vals, iv.ClassOf(s.PeakMem))
	}
	return d
}

// Table1Config tunes the accuracy sweep.
type Table1Config struct {
	SamplesPerFunction int
	Folds              int
	ForestSize         int
	Seed               int64
}

// DefaultTable1Config mirrors the paper (cross-validation over the
// per-function datasets).
func DefaultTable1Config() Table1Config {
	return Table1Config{SamplesPerFunction: 450, Folds: 10, ForestSize: 20, Seed: 1}
}

// Table1 reproduces Table 1: exact and exact-or-over accuracy of four
// decision-tree algorithms at 32/16/8 MB intervals, averaged over the
// 19 functions.
func Table1(cfg Table1Config) *Table {
	t := &Table{
		Title:   "Table 1 — ML algorithms vs interval sizes (fractions averaged over 19 functions)",
		Headers: []string{"Interval", "Algorithm", "Exact (%)", "Exact-or-over (%)"},
	}
	intervals := []int64{32 << 20, 16 << 20, 8 << 20}
	algos := func(seed int64) []mltree.Learner {
		return []mltree.Learner{
			mltree.HoeffdingLearner{},
			mltree.NewJ48(),
			&mltree.RandomForest{Trees: cfg.ForestSize, MinLeaf: 1, Seed: seed},
			mltree.NewRandomTree(seed),
		}
	}
	specs := workload.Specs()
	for _, ivSize := range intervals {
		iv := core.Intervals{Size: ivSize, Max: 2 << 30}
		for ai, learner := range algos(cfg.Seed) {
			var exact, eo float64
			for si, spec := range specs {
				d := functionDataset(spec, cfg.SamplesPerFunction, iv, cfg.Seed+int64(si))
				conf := mltree.CrossValidate(algos(cfg.Seed + int64(si))[ai], d, cfg.Folds, cfg.Seed)
				exact += conf.Accuracy()
				eo += conf.EOAccuracy()
			}
			n := float64(len(specs))
			t.Add(fmt.Sprintf("%dMB", ivSize>>20), learner.Name(),
				fmt.Sprintf("%.2f", exact/n*100), fmt.Sprintf("%.2f", eo/n*100))
		}
	}
	return t
}

// BenefitResult reproduces §7.1.1's cache-benefit classifier scores.
type BenefitResult struct {
	Precision, Recall, F1 float64
}

// CacheBenefit evaluates the J48 benefit classifier over all
// functions' offline samples.
func CacheBenefit(samplesPerFn int, seed int64) (*Table, BenefitResult) {
	rng := rand.New(rand.NewSource(seed))
	var totalP, totalR, totalF float64
	n := 0
	t := &Table{
		Title:   "§7.1.1 — caching-benefit classifier (J48)",
		Headers: []string{"Function", "Precision", "Recall", "F-measure"},
	}
	for _, spec := range workload.Specs() {
		su := workload.NewSuite()
		fn := su.Build(spec, "ml", 0)
		pool := workload.NewInputPool(rng, spec.InputType, "bf/"+spec.Name, mlSizesFor(spec.InputType), 4)
		samples := workload.TrainingSamples(spec, fn, pool, samplesPerFn, rng, objstore.SwiftProfile())
		schema := core.NewFeatureSchema(fn)
		d := mltree.NewDataset(schema.Attributes(), []string{"no", "yes"})
		pos := 0
		for _, s := range samples {
			label := 0
			if s.BenefitLabel() {
				label = 1
				pos++
			}
			d.Add(s.Vals, label)
		}
		if pos == 0 || pos == len(samples) {
			// Degenerate (always/never beneficial): trivially learnable;
			// count as perfect, as Weka does for single-class data.
			t.Add(spec.Name, "1.00", "1.00", "1.00")
			totalP++
			totalR++
			totalF++
			n++
			continue
		}
		conf := mltree.CrossValidate(mltree.NewJ48(), d, 10, seed)
		p, r, f := conf.Precision(1), conf.Recall(1), conf.F1(1)
		t.Add(spec.Name, fmt.Sprintf("%.3f", p), fmt.Sprintf("%.3f", r), fmt.Sprintf("%.3f", f))
		totalP += p
		totalR += r
		totalF += f
		n++
	}
	res := BenefitResult{Precision: totalP / float64(n), Recall: totalR / float64(n), F1: totalF / float64(n)}
	t.Note = fmt.Sprintf("average: precision=%.3f recall=%.3f F-measure=%.3f (paper: 0.988 / 0.986 / 0.987)",
		res.Precision, res.Recall, res.F1)
	return t, res
}

// Figure5Result carries the error-distribution statistics.
type Figure5Result struct {
	// WithinThree is the fraction of overpredictions within 3
	// intervals of the truth (paper: 90%).
	WithinThree float64
	// AvgOverWasteMB is the average memory waste of overpredictions
	// (paper: 26.8 MB at 16 MB intervals).
	AvgOverWasteMB float64
}

// Figure5 reproduces the J48/16MB prediction-error distribution over
// all functions combined.
func Figure5(samplesPerFn int, seed int64) (*Table, Figure5Result) {
	iv := core.Intervals{Size: 16 << 20, Max: 2 << 30}
	hist := map[int]float64{}
	for si, spec := range workload.Specs() {
		d := functionDataset(spec, samplesPerFn, iv, seed+int64(si))
		conf := mltree.CrossValidate(mltree.NewJ48(), d, 10, seed)
		for e, w := range conf.ErrorHistogram() {
			hist[e] += w
		}
	}
	var over, overWithin3, overWasteIntervals, total float64
	for e, w := range hist {
		total += w
		if e > 0 {
			over += w
			overWasteIntervals += float64(e) * w
			if e <= 3 {
				overWithin3 += w
			}
		}
	}
	var res Figure5Result
	if over > 0 {
		res.WithinThree = overWithin3 / over
		res.AvgOverWasteMB = overWasteIntervals / over * 16
	}
	t := &Table{
		Title:   "Figure 5 — distribution of memory-prediction errors (J48, 16 MB intervals, all functions)",
		Headers: []string{"Error (MB)", "Fraction"},
		Note: fmt.Sprintf("overpredictions within 3 intervals: %s (paper 90%%); mean overprediction waste: %.1f MB (paper 26.8 MB)",
			pct(res.WithinThree), res.AvgOverWasteMB),
	}
	var errs []int
	for e := range hist {
		errs = append(errs, e)
	}
	sort.Ints(errs)
	for _, e := range errs {
		t.Add(fmt.Sprintf("%+d", e*16), fmt.Sprintf("%.4f", hist[e]/total))
	}
	return t, res
}

// Figure6Result carries prediction-latency statistics (host time: this
// is a real algorithm measurement, not a simulation).
type Figure6Result struct {
	Median, P99 time.Duration
}

// fig6Samples latency samples are taken per model, each over a batch of
// fig6Batch classifications.
const fig6Samples, fig6Batch = 1000, 64

// Figure6 measures single-prediction latency for J48 across interval
// sizes, and RandomForest for the §7.1.2 comparison. A J48 walk is
// shorter than the two clock reads around it, so each of fig6Samples
// samples is the mean of a batch of fig6Batch classifications of one
// vector, and the p99 is over those batch means.
func Figure6(samplesPerFn int, seed int64) (*Table, map[string]Figure6Result) {
	t := &Table{
		Title:   "Figure 6 — prediction latency (host time)",
		Headers: []string{"Model", "Interval", "Median", "p99"},
	}
	out := map[string]Figure6Result{}
	spec := workload.SpecByName("wand_blur")
	measure := func(model mltree.Classifier, d *mltree.Dataset) Figure6Result {
		var h metrics.Histogram
		for i := 0; i < fig6Samples; i++ {
			vals := d.Instances[i%d.Len()].Vals
			start := time.Now() //lint:allow wallclock Figure 6 measures real prediction latency on the host CPU, not simulated time
			for range fig6Batch {
				model.Classify(vals)
			}
			h.Add(time.Since(start) / fig6Batch) //lint:allow wallclock Figure 6 measures real prediction latency on the host CPU, not simulated time
		}
		return Figure6Result{Median: h.Median(), P99: h.P99()}
	}
	for _, ivSize := range []int64{8 << 20, 16 << 20, 32 << 20} {
		iv := core.Intervals{Size: ivSize, Max: 2 << 30}
		d := functionDataset(spec, samplesPerFn, iv, seed)
		model := mltree.NewJ48().Fit(d)
		r := measure(model, d)
		key := fmt.Sprintf("J48/%dMB", ivSize>>20)
		out[key] = r
		t.Add("J48", fmt.Sprintf("%dMB", ivSize>>20), r.Median, r.P99)
	}
	// RandomForest at 16 MB for the comparison (paper: 106 µs median).
	iv := core.Intervals{Size: 16 << 20, Max: 2 << 30}
	d := functionDataset(spec, samplesPerFn, iv, seed)
	forest := (&mltree.RandomForest{Trees: 30, MinLeaf: 1, Seed: seed}).Fit(d)
	r := measure(forest, d)
	out["RandomForest/16MB"] = r
	t.Add("RandomForest", "16MB", r.Median, r.P99)
	t.Note = "paper: J48/16MB median 3.19µs p99 12.54µs; RandomForest median 106.29µs"
	return t, out
}

// MaturationResult is §7.1.3's quickness distribution.
type MaturationResult struct {
	PerFunction      map[string]int
	Median, P75, P95 int
}

// Maturation streams law-generated invocations through the online
// trainer for each of the 19 functions and reports how many
// invocations each model needed to pass the §5.3 criteria.
func Maturation(seed int64) (*Table, MaturationResult) {
	res := MaturationResult{PerFunction: map[string]int{}}
	env := sim.NewEnv(seed)
	for si, spec := range workload.Specs() {
		pred := core.NewPredictor()
		trainer := core.NewModelTrainer(pred, env)
		rng := rand.New(rand.NewSource(seed + int64(si)))
		su := workload.NewSuite()
		fn := su.Build(spec, "mat", 0)
		pool := workload.NewInputPool(rng, spec.InputType, "mat/"+spec.Name, mlSizesFor(spec.InputType), 4)
		samples := workload.TrainingSamples(spec, fn, pool, 600, rng, objstore.SwiftProfile())
		matured := 0
		for i, s := range samples {
			trainer.Observe(fn, &faas.Request{Function: fn}, s)
			if pred.Mature(fn) {
				matured = i + 1
				break
			}
		}
		if matured == 0 {
			matured = len(samples) + 1 // did not mature in the window
		}
		res.PerFunction[spec.Name] = matured
	}
	var all []int
	for _, v := range res.PerFunction {
		all = append(all, v)
	}
	sort.Ints(all)
	res.Median = all[len(all)/2]
	res.P75 = all[len(all)*3/4]
	res.P95 = all[len(all)*95/100]
	t := &Table{
		Title:   "§7.1.3 — model maturation quickness (invocations to maturity)",
		Headers: []string{"Function", "Invocations"},
		Note: fmt.Sprintf("median=%d p75=%d p95=%d (paper: median 100, 75%%<250, 95%%<450)",
			res.Median, res.P75, res.P95),
	}
	var names []string
	for n := range res.PerFunction {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Add(n, res.PerFunction[n])
	}
	return t, res
}
