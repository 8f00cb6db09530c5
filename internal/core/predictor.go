package core

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"time"

	"ofc/internal/faas"
	"ofc/internal/metrics"
	"ofc/internal/mltree"
	"ofc/internal/sim"
	"ofc/internal/trace"
)

// Sample is one observed invocation used for training.
type Sample struct {
	Vals    []float64
	PeakMem int64
	// Phase durations measured against the RSDS (ground truth for the
	// caching-benefit label (E+L)/(E+T+L) > 0.5, §5.2).
	Extract, Transform, Load time.Duration
	// BenefitKnown is false when the invocation was served from the
	// cache, where the uncached E and L are unobservable.
	BenefitKnown bool
}

// BenefitLabel computes the §5.2 ground truth.
func (s *Sample) BenefitLabel() bool {
	total := s.Extract + s.Transform + s.Load
	if total == 0 {
		return false
	}
	return float64(s.Extract+s.Load)/float64(total) > 0.5
}

// modelState holds the per-function learning state.
type modelState struct {
	fn     *faas.Function
	schema *FeatureSchema

	mu sync.Mutex
	// Training data, append-only, and the learner that refits each set:
	// kept across refits because a J48 starts its column sorts from
	// its previous fit's order.
	memData        *mltree.Dataset
	benefitData    *mltree.Dataset
	memLearner     *mltree.J48
	benefitLearner *mltree.J48
	// Trained models (nil until first train) and the dataset length
	// each was fitted from: the datasets only grow, so a model whose
	// length still matches has seen every row and a refit would
	// reproduce it. -1 marks an imported model, fitted from no local
	// data.
	memModel       *mltree.Tree
	benefitModel   *mltree.Tree
	memFitRows     int
	benefitFitRows int
	// Serving state: the compiled (flat, zero-allocation) forms of the
	// models, each rebuilt when its model is refit; the advice memo
	// keyed by the exact feature-vector bits, flushed on every retrain;
	// and the retrain generation that scopes the memo's validity.
	gen             int
	memCompiled     *mltree.CompiledTree
	benefitCompiled *mltree.CompiledTree
	advCache        map[string]faas.Advice
	vecBuf          []float64
	keyBuf          []byte
	distBuf         []float64
	// Maturation state (§5.3).
	mature       bool
	maturedAt    int // invocation count at maturation
	invocations  int // total observed
	sinceTrain   int // observations since last retrain
	benefitSince int
	lastCheck    int
}

// PredictorConfig tunes the ML module.
type PredictorConfig struct {
	Intervals Intervals
	// MinInvocations before the first maturation check (paper: 100).
	MinInvocations int
	// CheckEvery is the re-check cadence (in invocations) before
	// maturation.
	CheckEvery int
	// EOTarget and UnderWithinOneTarget are the §5.3 criteria.
	EOTarget             float64
	UnderWithinOneTarget float64
	// CVFolds used for the maturation evaluation.
	CVFolds int
	// OverPredictionSlack is how far above truth (in intervals) a
	// prediction must be before it re-enters the training set after
	// maturation (paper: 6).
	OverPredictionSlack int
	// UnderWeight is the extra weight of underprediction samples.
	UnderWeight float64
	// Seed feeds the CV shuffles.
	Seed int64
}

// DefaultPredictorConfig returns the paper's parameters.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		Intervals:            DefaultIntervals(),
		MinInvocations:       100,
		CheckEvery:           25,
		EOTarget:             0.90,
		UnderWithinOneTarget: 0.50,
		CVFolds:              5,
		OverPredictionSlack:  6,
		UnderWeight:          2,
	}
}

// Predictor serves memory and caching-benefit predictions on the
// invocation critical path (§5.1, §5.2) and owns the per-function
// model states the ModelTrainer updates.
type Predictor struct {
	cfg PredictorConfig

	// memo aggregates advice-cache hit/miss/invalidation counts across
	// all functions (lock-free; reporting reads a coherent snapshot).
	memo metrics.MemoCounters

	// tracer records "predict"/"retrain" spans (nil = off; set before
	// traffic starts). The Advise fast path stays zero-alloc: with a
	// nil tracer it branches straight into the untraced body.
	tracer *trace.Tracer

	mu     sync.Mutex
	models map[string]*modelState
}

// SetTracer attaches the span recorder. Call before traffic starts.
func (p *Predictor) SetTracer(tr *trace.Tracer) { p.tracer = tr }

// NewPredictor returns an empty predictor.
func NewPredictor(cfg PredictorConfig) *Predictor {
	return &Predictor{cfg: cfg, models: make(map[string]*modelState)}
}

// state returns (creating if needed) the model state for fn.
func (p *Predictor) state(fn *faas.Function) *modelState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.models[fn.ID()]
	if !ok {
		schema := NewFeatureSchema(fn)
		st = &modelState{
			fn:             fn,
			schema:         schema,
			memData:        mltree.NewDataset(schema.Attributes(), p.cfg.Intervals.ClassNames()),
			benefitData:    mltree.NewDataset(schema.Attributes(), []string{"no", "yes"}),
			memLearner:     mltree.NewJ48(),
			benefitLearner: mltree.NewJ48(),
		}
		p.models[fn.ID()] = st
	}
	return st
}

// advCacheMax bounds the per-function advice memo. Real workloads
// cluster on few distinct feature vectors (that is why the memo pays);
// a pathological stream of unique vectors just resets the map and
// keeps serving from the compiled models.
const advCacheMax = 4096

// appendVecKey encodes the exact bit pattern of every feature into
// dst — the memo key. Identity encoding (no rounding) guarantees a
// memo hit returns bit-identical advice to recomputation; Missing is
// one fixed NaN pattern, so it keys consistently too.
func appendVecKey(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Advise implements faas.Advisor: predict the sandbox memory (upper
// bound of the *next greater* interval, §5.3's conservative bump) and
// the caching benefit. Advice is unusable until the model matures.
//
// This is the invocation critical path (§5.1 budgets ~1 ms), so it
// serves from the compiled (flat, zero-allocation) model forms and
// memoizes the full advice per exact feature vector; the memo is
// flushed whenever a retrain bumps the model generation, making it
// semantically invisible. A hit costs a vector build, a key append and
// one map probe — no tree walk, no allocation.
func (p *Predictor) Advise(req *faas.Request) faas.Advice {
	if p.tracer == nil {
		return p.advise(req, nil)
	}
	ref := req.TraceRef()
	sp := p.tracer.Begin(ref.Trace, ref.Span, "predict", 0)
	adv := p.advise(req, &sp)
	if adv.Use {
		sp.SetNum("use", 1)
	} else {
		sp.SetNum("use", 0)
	}
	p.tracer.End(&sp)
	return adv
}

// advise is Advise's body; sp (nil when tracing is off) collects the
// memo-hit/maturity attributes.
func (p *Predictor) advise(req *faas.Request, sp *trace.Span) faas.Advice {
	st := p.state(req.Function)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.mature || st.memModel == nil {
		sp.SetNum("immature", 1)
		return faas.Advice{Use: false, ShouldCache: false}
	}
	vals := st.schema.VectorInto(req, st.vecBuf)
	st.vecBuf = vals

	st.keyBuf = appendVecKey(st.keyBuf[:0], vals)
	if adv, ok := st.advCache[string(st.keyBuf)]; ok {
		p.memo.Hit()
		sp.SetNum("memo", 1)
		return adv
	}
	p.memo.Miss()
	sp.SetNum("memo", 0)

	adv := st.adviseLocked(p.cfg.Intervals, vals)
	if st.advCache == nil || len(st.advCache) >= advCacheMax {
		st.advCache = make(map[string]faas.Advice)
	}
	st.advCache[string(st.keyBuf)] = adv
	return adv
}

// adviseLocked computes advice from the compiled models; a memory
// model always has its compiled form beside it. Callers hold st.mu.
func (st *modelState) adviseLocked(iv Intervals, vals []float64) faas.Advice {
	k := st.memCompiled.Classify(vals)
	mem := iv.UpperBound(k + 1) // conservative next interval
	should := true
	benefit := 1.0
	if st.benefitCompiled != nil {
		should = st.benefitCompiled.Classify(vals) == 1
		// The benefit score is the model's probability mass on the
		// "yes" class — the cost term cost-aware eviction policies
		// weigh per object.
		if st.benefitCompiled.NumClasses() > 1 {
			if cap(st.distBuf) < st.benefitCompiled.NumClasses() {
				st.distBuf = make([]float64, st.benefitCompiled.NumClasses())
			}
			benefit = st.benefitCompiled.DistributionInto(vals, st.distBuf)[1]
		}
	}
	return faas.Advice{Mem: mem, ShouldCache: should, Benefit: benefit, Use: true}
}

// MemoStats returns the aggregate advice-memo hit/miss/invalidation
// counts.
func (p *Predictor) MemoStats() (hits, misses, invalidations int64) {
	return p.memo.Snapshot()
}

// Generation returns fn's retrain generation (bumped whenever either
// model is refit; the advice memo is scoped to it).
func (p *Predictor) Generation(fn *faas.Function) int {
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Mature reports whether fn's memory model passed the §5.3 criteria.
func (p *Predictor) Mature(fn *faas.Function) bool {
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.mature
}

// MaturedAt returns the invocation count at which fn's model matured
// (0 if not yet).
func (p *Predictor) MaturedAt(fn *faas.Function) int {
	st := p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.maturedAt
}

// Schema exposes the feature schema of fn (experiments use it to build
// offline datasets).
func (p *Predictor) Schema(fn *faas.Function) *FeatureSchema {
	return p.state(fn).schema
}

// ModelTrainer ingests completed invocations, maintains the training
// datasets, retrains the J48 models and applies the maturation
// criteria (§5.3). Retraining runs periodically on the trainer node,
// off the critical path.
type ModelTrainer struct {
	p   *Predictor
	env *sim.Env
	// TrainEvery is the virtual-time retraining period.
	TrainEvery time.Duration
}

// NewModelTrainer wires a trainer to the predictor. Call Start to arm
// the periodic retraining loop, or rely on per-observation triggers.
func NewModelTrainer(p *Predictor, env *sim.Env) *ModelTrainer {
	return &ModelTrainer{p: p, env: env, TrainEvery: 60 * time.Second}
}

// Observe records one completed invocation for fn.
func (t *ModelTrainer) Observe(fn *faas.Function, req *faas.Request, s Sample) {
	cfg := t.p.cfg
	st := t.p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.invocations++
	trueClass := cfg.Intervals.ClassOf(s.PeakMem)

	addMem := true
	weight := 1.0
	if st.mature && st.memModel != nil {
		// Post-maturation dataset policy (§5.3.3): keep the set small;
		// only add invocations the model got wrong on the dangerous
		// side (underprediction) or absurdly wrong on the high side.
		pred := st.memModel.Classify(s.Vals)
		switch {
		case pred < trueClass:
			weight = cfg.UnderWeight
		case pred-trueClass > cfg.OverPredictionSlack:
			weight = 1
		default:
			addMem = false
		}
	}
	if addMem {
		st.memData.AddWeighted(s.Vals, trueClass, weight)
		st.sinceTrain++
	}
	if s.BenefitKnown {
		label := 0
		if s.BenefitLabel() {
			label = 1
		}
		st.benefitData.Add(s.Vals, label)
		st.benefitSince++
	}

	// Pre-maturation: retrain + re-check at the configured cadence.
	if !st.mature {
		if st.invocations >= cfg.MinInvocations && st.invocations-st.lastCheck >= 0 &&
			(st.invocations == cfg.MinInvocations || st.invocations-st.lastCheck >= cfg.CheckEvery) {
			st.lastCheck = st.invocations
			t.trainLocked(st)
			if t.matureCheckLocked(st) {
				st.mature = true
				st.maturedAt = st.invocations
			}
		}
		return
	}
	// Post-maturation: correct quickly after a bad prediction (§5.3:
	// "the model is corrected quickly").
	if st.sinceTrain >= 5 || st.benefitSince >= 25 {
		t.trainLocked(st)
	}
}

// trainLocked brings both models up to date with the current datasets.
// A model is refit, and its compiled form rebuilt, only when its
// dataset holds rows it has not seen; J48 is deterministic, so fitting
// the same rows again would yield the same tree. Every retrain bumps
// the serving generation and flushes the advice memo, whether or not a
// tree moved, so stale advice can never outlive the model that
// produced it.
func (t *ModelTrainer) trainLocked(st *modelState) {
	changed := false
	if n := st.memData.Len(); n >= 10 {
		if n != st.memFitRows {
			st.memModel = st.memLearner.Fit(st.memData).(*mltree.Tree)
			st.memCompiled = st.memModel.Compile()
			st.memFitRows = n
		}
		st.sinceTrain = 0
		changed = true
	}
	if n := st.benefitData.Len(); n >= 10 {
		if n != st.benefitFitRows {
			st.benefitModel = st.benefitLearner.Fit(st.benefitData).(*mltree.Tree)
			st.benefitCompiled = st.benefitModel.Compile()
			st.benefitFitRows = n
		}
		st.benefitSince = 0
		changed = true
	}
	if changed {
		st.gen++
		if len(st.advCache) > 0 {
			st.advCache = nil
			t.p.memo.Invalidation()
		}
		// Control-plane root span (trace 0): retrains have no owning
		// invocation. Zero-duration — training is off the virtual
		// clock — but the event and its generation are part of the
		// latency story (each one flushes the advice memo).
		if tr := t.p.tracer; tr != nil {
			sp := tr.Begin(0, 0, "retrain", 0)
			sp.SetStr("fn", st.fn.ID())
			sp.SetNum("gen", int64(st.gen))
			tr.End(&sp)
		}
	}
}

// matureCheckLocked evaluates the §5.3 criteria by cross-validation
// over the training set.
func (t *ModelTrainer) matureCheckLocked(st *modelState) bool {
	cfg := t.p.cfg
	if st.memData.Len() < cfg.MinInvocations {
		return false
	}
	conf := mltree.CrossValidate(mltree.NewJ48(), st.memData, cfg.CVFolds, cfg.Seed+int64(st.invocations))
	return conf.EOAccuracy() >= cfg.EOTarget && conf.UnderWithinOne() >= cfg.UnderWithinOneTarget
}

// Pretrain matures fn's models from an offline dataset (the paper's
// machine-learning folder: offline scripts and data from initial
// experiments). Used by macro experiments, which run far fewer
// invocations than online maturation needs.
func (t *ModelTrainer) Pretrain(fn *faas.Function, samples []Sample) {
	st := t.p.state(fn)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range samples {
		st.memData.Add(s.Vals, t.p.cfg.Intervals.ClassOf(s.PeakMem))
		if s.BenefitKnown {
			label := 0
			if s.BenefitLabel() {
				label = 1
			}
			st.benefitData.Add(s.Vals, label)
		}
	}
	st.invocations += len(samples)
	t.trainLocked(st)
	st.mature = true
	st.maturedAt = st.invocations
}

// Start arms the periodic retraining loop (paper: the ModelTrainer
// "periodically retrains all memory prediction models").
func (t *ModelTrainer) Start() {
	t.env.Every(t.TrainEvery, func() bool {
		t.p.mu.Lock()
		// Retrain in sorted function order: each state's training is
		// independent, but a fixed sequence keeps any future shared
		// resource (trainer RNG, budget) off the map-order lottery.
		names := make([]string, 0, len(t.p.models))
		for name := range t.p.models {
			names = append(names, name)
		}
		sort.Strings(names)
		states := make([]*modelState, 0, len(names))
		for _, name := range names {
			states = append(states, t.p.models[name])
		}
		t.p.mu.Unlock()
		for _, st := range states {
			st.mu.Lock()
			if st.sinceTrain > 0 || st.benefitSince > 0 {
				t.trainLocked(st)
			}
			st.mu.Unlock()
		}
		return true
	})
}
