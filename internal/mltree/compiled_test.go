package mltree

import (
	"math/rand"
	"testing"
)

// predictorDataset synthesizes a dataset shaped like the Predictor's
// memory model: all-numeric features, many classes, enough instances
// that J48 grows a real tree rather than a stump.
func predictorDataset(n, classes int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset([]Attribute{
		{Name: "size", Kind: Numeric},
		{Name: "width", Kind: Numeric},
		{Name: "height", Kind: Numeric},
		{Name: "channels", Kind: Numeric},
		{Name: "quality", Kind: Numeric},
	}, make([]string, classes))
	for c := 0; c < classes; c++ {
		d.Classes[c] = string(rune('a' + c%26))
	}
	for i := 0; i < n; i++ {
		size := rng.Float64() * 1e8
		width := rng.Float64() * 4000
		height := rng.Float64() * 4000
		ch := float64(1 + rng.Intn(4))
		q := rng.Float64() * 100
		class := int(size/1e8*float64(classes)*0.5+width/4000*float64(classes)*0.5) % classes
		d.Add([]float64{size, width, height, ch, q}, class)
	}
	return d
}

// probeVectors builds test vectors covering in-range, out-of-range and
// missing values so every walk edge case (numeric both sides, absent
// nominal branch, missing stop at an internal node) is exercised.
func probeVectors(d *Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][]float64
	for i := 0; i < n; i++ {
		vals := make([]float64, len(d.Attrs))
		for a := range d.Attrs {
			switch {
			case rng.Float64() < 0.1:
				vals[a] = Missing
			case d.Attrs[a].Kind == Nominal:
				// Occasionally out of range to hit the absent-branch stop.
				vals[a] = float64(rng.Intn(d.Attrs[a].NumValues() + 1))
			default:
				vals[a] = rng.Float64() * 12
			}
		}
		out = append(out, vals)
	}
	for i := range d.Instances {
		out = append(out, d.Instances[i].Vals)
	}
	return out
}

// assertSame checks the Tree agrees bit-for-bit with the reference
// pointer walk on every probe.
func assertSame(t *testing.T, name string, ref Classifier, tree *Tree, probes [][]float64) {
	t.Helper()
	for i, vals := range probes {
		if rc, tc := ref.Classify(vals), tree.Classify(vals); rc != tc {
			t.Fatalf("%s: probe %d Classify: pointer walk=%d tree=%d", name, i, rc, tc)
		}
		rd, td := ref.Distribution(vals), tree.Distribution(vals)
		if len(rd) != len(td) {
			t.Fatalf("%s: probe %d distribution lengths differ: %d vs %d", name, i, len(rd), len(td))
		}
		for c := range rd {
			if rd[c] != td[c] {
				t.Fatalf("%s: probe %d class %d: pointer walk=%v tree=%v (must be bit-identical)", name, i, c, rd[c], td[c])
			}
		}
	}
}

func TestJ48WalkMatchesPointerWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *Dataset
	}{
		{"nominal", nominalDataset(600, 1)},
		{"numeric128", predictorDataset(800, 128, 2)},
	} {
		j := NewJ48()
		tree := j.Fit(tc.d).(*Tree)
		ref := refTree{refJ48Root(j, tc.d), tc.d.Attrs}
		assertSame(t, "J48/"+tc.name, ref, tree, probeVectors(tc.d, 300, 7))
	}
}

func TestRandomTreeWalkMatchesPointerWalk(t *testing.T) {
	d := nominalDataset(500, 3)
	rt := NewRandomTree(11)
	ref := refTree{refRandomTreeRoot(rt, d), d.Attrs}
	assertSame(t, "RandomTree", ref, rt.Fit(d).(*Tree), probeVectors(d, 300, 8))
}

// TestClassifyZeroAlloc is the allocation regression gate for the
// critical path: Classify and DistributionInto must not allocate.
func TestClassifyZeroAlloc(t *testing.T) {
	d := predictorDataset(800, 128, 2)
	tree := NewJ48().Fit(d).(*Tree)
	vals := d.Instances[17].Vals
	if n := testing.AllocsPerRun(200, func() { tree.Classify(vals) }); n != 0 {
		t.Errorf("Tree.Classify allocates %v/op, want 0", n)
	}
	buf := make([]float64, tree.NumClasses())
	if n := testing.AllocsPerRun(200, func() { tree.DistributionInto(vals, buf) }); n != 0 {
		t.Errorf("Tree.DistributionInto allocates %v/op, want 0", n)
	}
}
