package core

import (
	"testing"

	"ofc/internal/faas"
	"ofc/internal/sim"
)

// memoFixture builds a matured predictor/trainer pair for fn,
// pretrained on n synthetic samples.
func memoFixture(t testing.TB, n int, seed int64) (*Predictor, *ModelTrainer, *faas.Function) {
	t.Helper()
	pred := NewPredictor(DefaultPredictorConfig())
	trainer := NewModelTrainer(pred, sim.NewEnv(1))
	fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), n, seed))
	if !pred.Mature(fn) {
		t.Fatal("pretrained model not mature")
	}
	return pred, trainer, fn
}

// recompute is Advise without the memo: what adviseLocked derives from
// the compiled models for req, cached nowhere.
func recompute(p *Predictor, req *faas.Request) faas.Advice {
	st := p.state(req.Function)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.adviseLocked(p.cfg.Intervals, st.schema.VectorInto(req, nil))
}

func memoReq(fn *faas.Function, width float64) *faas.Request {
	return &faas.Request{Function: fn, Args: map[string]float64{"sigma": 3},
		InputFeatures: map[string]float64{"size": 64 * 1024, "width": width, "height": width * 0.75, "channels": 3}}
}

// TestAdviceMemoHitAndInvalidation checks the memo life cycle: a
// repeated request hits, a retrain bumps the generation and evicts
// every cached entry, and the next request misses again.
func TestAdviceMemoHitAndInvalidation(t *testing.T) {
	pred, trainer, fn := memoFixture(t, 300, 7)
	req := memoReq(fn, 800)

	first := pred.Advise(req)
	if !first.Use {
		t.Fatal("mature model gives no advice")
	}
	second := pred.Advise(req)
	if first != second {
		t.Fatalf("memoized advice differs: %+v vs %+v", first, second)
	}
	hits, misses, inv := pred.MemoStats()
	if hits != 1 || misses != 1 || inv != 0 {
		t.Fatalf("after hit: hits=%d misses=%d inv=%d, want 1/1/0", hits, misses, inv)
	}

	gen := pred.Generation(fn)
	if gen == 0 {
		t.Fatal("pretrained model has generation 0; retrain tracking is dead")
	}
	// Retrain with more data: generation must bump and the memo flush.
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 100, 99))
	if got := pred.Generation(fn); got <= gen {
		t.Fatalf("generation %d after retrain, want > %d", got, gen)
	}
	if _, _, inv := pred.MemoStats(); inv != 1 {
		t.Fatalf("invalidations=%d after retrain, want 1", inv)
	}

	third := pred.Advise(req)
	if _, misses, _ := pred.MemoStats(); misses != 2 {
		t.Fatal("post-retrain advise did not miss; stale entry survived the flush")
	}
	// The recomputed advice must match a predictor trained identically
	// that never memoized anything before the retrain — the memo never
	// changes results, only cost.
	fresh, freshTrainer, freshFn := memoFixture(t, 300, 7)
	freshTrainer.Pretrain(freshFn, synthSamples(fresh.Schema(freshFn), 100, 99))
	if want := recompute(fresh, memoReq(freshFn, 800)); third != want {
		t.Fatalf("memoized advice %+v != memo-free advice %+v", third, want)
	}
}

// TestMemoTransparent replays a varied request stream through the
// memoized Advise and through adviseLocked directly: every advice must
// be identical, bit for bit.
func TestMemoTransparent(t *testing.T) {
	pred, _, fn := memoFixture(t, 300, 11)
	widths := []float64{200, 800, 1600, 800, 200, 3200, 800, 1600, 200, 800}
	for i, w := range widths {
		on := pred.Advise(memoReq(fn, w))
		off := recompute(pred, memoReq(fn, w))
		if on != off {
			t.Fatalf("request %d (width=%v): memoized %+v != recomputed %+v", i, w, on, off)
		}
	}
	if hits, _, _ := pred.MemoStats(); hits == 0 {
		t.Fatal("repeated widths produced no memo hits; the cache is dead")
	}
}

// TestAdviseHotZeroAlloc is the allocation regression gate for the
// critical-path advice lookup: once a vector is memoized, repeating it
// must not allocate.
func TestAdviseHotZeroAlloc(t *testing.T) {
	pred, _, fn := memoFixture(t, 300, 7)
	req := memoReq(fn, 800)
	pred.Advise(req) // populate the memo
	if n := testing.AllocsPerRun(200, func() { pred.Advise(req) }); n != 0 {
		t.Errorf("memoized Advise allocates %v/op, want 0", n)
	}
}

// BenchmarkAdvise measures the end-to-end critical-path advice lookup
// on a memoized vector (the steady state: OFC's workloads repeat
// feature vectors heavily).
func BenchmarkAdvise(b *testing.B) {
	pred, _, fn := memoFixture(b, 2000, 7)
	req := memoReq(fn, 800)
	pred.Advise(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Advise(req)
	}
}

// BenchmarkAdviseNoMemo measures what a memo miss computes: compiled
// inference (memory class + benefit verdict + benefit score) on every
// call.
func BenchmarkAdviseNoMemo(b *testing.B) {
	pred, _, fn := memoFixture(b, 2000, 7)
	req := memoReq(fn, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recompute(pred, req)
	}
}
