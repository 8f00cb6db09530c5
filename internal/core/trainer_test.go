package core

import (
	"testing"

	"ofc/internal/faas"
	"ofc/internal/sim"
)

// servedPointers snapshots which model objects a function is served by.
type servedPointers struct {
	mem, benefit         any
	memRows, benefitRows int
}

func served(p *Predictor, fn *faas.Function) servedPointers {
	st := p.state(fn)
	return servedPointers{
		mem: st.memModel, benefit: st.benefitModel,
		memRows: st.memData.Len(), benefitRows: st.benefitData.Len(),
	}
}

// TestRetrainRefitsOnlyTheGrownDataset: well-predicted invocations add
// benefit rows only, so the retrain they trigger must leave the memory
// model alone (the same object, not an equal copy), refit the benefit
// model, and still advance the generation and flush the memo as every
// retrain does.
func TestRetrainRefitsOnlyTheGrownDataset(t *testing.T) {
	pred, trainer, fn := memoFixture(t, 300, 7)
	req := memoReq(fn, 800)
	pred.Advise(req) // one memo entry for the retrain to flush
	before := served(pred, fn)
	gen := pred.Generation(fn)

	fed := 0
	for _, s := range synthSamples(pred.Schema(fn), 300, 7) {
		if class := pred.state(fn).memModel.Classify(s.Vals); class != pred.intervals.ClassOf(s.PeakMem) {
			continue
		}
		trainer.Observe(fn, &faas.Request{Function: fn}, s)
		if fed++; fed == 25 { // the post-maturation benefit trigger
			break
		}
	}
	after := served(pred, fn)
	if after.memRows != before.memRows || after.benefitRows != before.benefitRows+25 {
		t.Fatalf("datasets grew %d→%d (memory) and %d→%d (benefit); want only 25 benefit rows",
			before.memRows, after.memRows, before.benefitRows, after.benefitRows)
	}
	if after.mem != before.mem {
		t.Error("memory model was refit though its dataset has no new row")
	}
	if after.benefit == before.benefit {
		t.Error("benefit model was not refit from its 25 new rows")
	}
	if got := pred.Generation(fn); got != gen+1 {
		t.Errorf("generation %d after one retrain, want %d", got, gen+1)
	}
	if _, _, inv := pred.MemoStats(); inv != 1 {
		t.Errorf("memo invalidations=%d after the retrain, want 1", inv)
	}
	pred.Advise(req)
	if _, misses, _ := pred.MemoStats(); misses != 2 {
		t.Error("advice after the retrain was served from the flushed memo")
	}
}

// TestSecondPretrainRefitsBoth: Pretrain adds rows without going through
// Observe's counters, and both models must pick them up.
func TestSecondPretrainRefitsBoth(t *testing.T) {
	pred, trainer, fn := memoFixture(t, 300, 7)
	before := served(pred, fn)
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 100, 99))
	after := served(pred, fn)
	if after.mem == before.mem {
		t.Error("memory model not refit by a second Pretrain")
	}
	if after.benefit == before.benefit {
		t.Error("benefit model not refit by a second Pretrain")
	}
}

// TestRetrainCountOnFixedStream pins how often a fixed Observe stream
// retrains (the benchmark's predictor.retrains): skipping a refit must
// not skip the retrain's generation bump.
func TestRetrainCountOnFixedStream(t *testing.T) {
	pred := NewPredictor()
	trainer := NewModelTrainer(pred, sim.NewEnv(1))
	fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	for i, s := range synthSamples(pred.Schema(fn), 600, 42) {
		s.BenefitKnown = i%3 != 0
		trainer.Observe(fn, &faas.Request{Function: fn}, s)
	}
	got := served(pred, fn)
	if gen := pred.Generation(fn); gen != 16 || pred.MaturedAt(fn) != 225 || got.memRows != 245 || got.benefitRows != 400 {
		t.Errorf("generation=%d maturedAt=%d memory rows=%d benefit rows=%d, want 16, 225, 245, 400",
			gen, pred.MaturedAt(fn), got.memRows, got.benefitRows)
	}
}
