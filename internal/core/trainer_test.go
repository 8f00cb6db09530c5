package core

import (
	"bytes"
	"testing"

	"ofc/internal/faas"
	"ofc/internal/sim"
)

// servedPointers snapshots which model objects a function is served by.
type servedPointers struct {
	mem, benefit                 any
	memCompiled, benefitCompiled any
	memRows, benefitRows         int
}

func served(p *Predictor, fn *faas.Function) servedPointers {
	st := p.state(fn)
	return servedPointers{
		mem: st.memModel, benefit: st.benefitModel,
		memCompiled: st.memCompiled, benefitCompiled: st.benefitCompiled,
		memRows: st.memData.Len(), benefitRows: st.benefitData.Len(),
	}
}

// TestRetrainRefitsOnlyTheGrownDataset: well-predicted invocations add
// benefit rows only, so the retrain they trigger must leave the memory
// model and its compiled table alone (the same objects, not equal
// copies), refit the benefit model, and still advance the generation
// and flush the memo as every retrain does.
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
	if after.mem != before.mem || after.memCompiled != before.memCompiled {
		t.Error("memory model was refit or recompiled though its dataset has no new row")
	}
	if after.benefit == before.benefit || after.benefitCompiled == before.benefitCompiled {
		t.Error("benefit model was not refit and recompiled from its 25 new rows")
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
	if after.mem == before.mem || after.memCompiled == before.memCompiled {
		t.Error("memory model not refit by a second Pretrain")
	}
	if after.benefit == before.benefit || after.benefitCompiled == before.benefitCompiled {
		t.Error("benefit model not refit by a second Pretrain")
	}
}

// TestImportThenRetrainReplacesImportedModels: an imported tree was
// fitted from none of the local rows, so the next retrain replaces it
// by a fit of the local datasets, even when those have not grown since
// the local fit the import overwrote.
func TestImportThenRetrainReplacesImportedModels(t *testing.T) {
	donor, _, fn := memoFixture(t, 300, 9)
	bundle, err := donor.ExportModel(fn)
	if err != nil {
		t.Fatal(err)
	}
	local := func(imported bool) []byte {
		pred := NewPredictor()
		trainer := NewModelTrainer(pred, sim.NewEnv(1))
		trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 100, 5))
		if imported {
			if err := pred.ImportModel(fn, bundle); err != nil {
				t.Fatal(err)
			}
		}
		trainer.Pretrain(fn, nil) // a retrain with no new row
		out, err := pred.ExportModel(fn)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := local(true), local(false); !bytes.Equal(got, want) {
		t.Errorf("models after import + retrain differ from a fit of the local data\n got %s\nwant %s", got, want)
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
