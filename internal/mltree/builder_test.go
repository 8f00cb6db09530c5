package mltree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// tieDataset draws a dataset shaped like the trainer's traffic: every
// numeric column takes at most `distinct` values (macro24 has 24
// videos), one value in twenty is missing, a third of the rows weigh
// `heavy` (the trainer's underprediction weight is 2), and the class
// follows the features closely enough that the tree grows past a stump.
// Sums of 1s and 2s are exact in any order; a heavy weight that is not
// a binary fraction makes the order of every accumulation show in the
// low bits.
func tieDataset(seed int64, rows, classes, distinct int, schema string, heavy float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	var attrs []Attribute
	numeric := func(name string) { attrs = append(attrs, Attribute{Name: name, Kind: Numeric}) }
	nominal := func(name string, k int) {
		a := Attribute{Name: name, Kind: Nominal}
		for v := 0; v < k; v++ {
			a.Values = append(a.Values, fmt.Sprint(name, v))
		}
		attrs = append(attrs, a)
	}
	switch schema {
	case "numeric":
		for _, n := range []string{"size", "width", "height", "channels", "arg"} {
			numeric(n)
		}
	case "nominal":
		nominal("kind", 3)
		nominal("fmt", 2)
		nominal("tenant", 5)
	default: // mixed
		numeric("size")
		nominal("kind", 4)
		numeric("arg")
		nominal("fmt", 2)
	}
	names := make([]string, classes)
	for c := range names {
		names[c] = fmt.Sprint("c", c)
	}
	d := NewDataset(attrs, names)
	vals := make([]float64, len(attrs))
	for i := 0; i < rows; i++ {
		score := 0.0
		for a := range attrs {
			if attrs[a].Kind == Nominal {
				vals[a] = float64(rng.Intn(attrs[a].NumValues()))
				score += vals[a] / float64(attrs[a].NumValues())
			} else {
				vals[a] = float64(rng.Intn(distinct)) * 12.5
				score += vals[a] / (12.5 * float64(distinct))
			}
			if rng.Intn(20) == 0 {
				vals[a] = Missing
			}
		}
		class := int(score/float64(len(attrs))*float64(classes)+rng.Float64()*1.5) % classes
		weight := 1.0
		if rng.Intn(3) == 0 {
			weight = heavy
		}
		d.AddWeighted(vals, class, weight)
	}
	return d
}

// sameTree fails unless got and want serialize to the same bytes and
// compile to the same tables. JSON prints a float64 as the shortest
// string that reads back to the same bits, so equal bytes are equal
// thresholds and counts, bit for bit.
func sameTree(t testing.TB, name string, got, want *Tree) {
	t.Helper()
	g, err := MarshalTree(got)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	w, err := MarshalTree(want)
	if err != nil {
		t.Fatalf("%s: marshal reference: %v", name, err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: tree differs from the reference builder's\n got %s\nwant %s", name, g, w)
	}
	if !reflect.DeepEqual(got.Compile(), want.Compile()) {
		t.Fatalf("%s: compiled tables differ from the reference builder's", name)
	}
}

func TestBuilderMatchesReferenceJ48(t *testing.T) {
	var learners []*J48
	for _, minLeaf := range []float64{1, 2} {
		for _, conf := range []float64{0, 0.25} {
			for _, depth := range []int{0, 3} {
				learners = append(learners, &J48{MinLeaf: minLeaf, Confidence: conf, MaxDepth: depth})
			}
		}
	}
	seed := int64(0)
	for _, rows := range []int{10, 300, 2500} {
		for _, classes := range []int{2, 128} {
			for _, schema := range []string{"numeric", "nominal", "mixed"} {
				seed++
				d := tieDataset(seed, rows, classes, 24, schema, 2)
				for _, j := range learners {
					name := fmt.Sprintf("%s/rows=%d/classes=%d/minLeaf=%v/cf=%v/depth=%d",
						schema, rows, classes, j.MinLeaf, j.Confidence, j.MaxDepth)
					sameTree(t, name, j.Fit(d).(*Tree), refJ48Fit(j, d))
				}
			}
		}
	}
}

// TestRefitOfGrownDatasetMatchesReference is the ModelTrainer's use: one
// learner refits a dataset that grows by appends, each fit starting its
// column sorts from the previous fit's order. The learners of the grid
// above are reused across datasets too, so they start from orders that
// belong to other data; neither may show in the tree.
func TestRefitOfGrownDatasetMatchesReference(t *testing.T) {
	full := tieDataset(7, 400, 2, 24, "numeric", 0.7)
	j := NewJ48()
	for n := 250; n <= full.Len(); n += 25 {
		d := full.Subset(full.Instances[:n])
		sameTree(t, fmt.Sprintf("rows=%d", n), j.Fit(d).(*Tree), refJ48Fit(j, d))
	}
	// A shorter dataset than the last fit's: the stale order is dropped.
	d := full.Subset(full.Instances[:100])
	sameTree(t, "shrunk", j.Fit(d).(*Tree), refJ48Fit(j, d))
}

// TestBuilderMatchesReferenceRandom pins the rng order too: a builder
// that sampled attributes at a different node, or in a different order,
// would grow different trees from the same seed.
func TestBuilderMatchesReferenceRandom(t *testing.T) {
	for i, d := range []*Dataset{
		tieDataset(101, 300, 2, 24, "mixed", 2),
		tieDataset(102, 300, 128, 24, "numeric", 0.7),
		tieDataset(103, 120, 5, 6, "nominal", 0.7),
	} {
		for seed := int64(1); seed <= 5; seed++ {
			rt := &RandomTree{MinLeaf: 1, Seed: seed}
			sameTree(t, fmt.Sprintf("RandomTree/data=%d/seed=%d", i, seed), rt.Fit(d).(*Tree), refRandomTreeFit(rt, d))

			rf := &RandomForest{Trees: 8, MinLeaf: 1, Seed: seed}
			got, want := rf.Fit(d).(*Forest), refForestFit(rf, d)
			for m := range want.members {
				sameTree(t, fmt.Sprintf("RandomForest/data=%d/seed=%d/member=%d", i, seed, m), got.members[m], want.members[m])
			}
		}
	}
}

func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(128), uint8(24))
	f.Add(int64(2), uint16(400), uint8(2), uint8(24))
	f.Add(int64(3), uint16(10), uint8(2), uint8(1))
	f.Add(int64(4), uint16(64), uint8(7), uint8(2))
	f.Add(int64(5), uint16(0), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, classes, distinct uint8) {
		d := tieDataset(seed, int(rows%512), 1+int(classes%128), 1+int(distinct%64),
			[]string{"numeric", "nominal", "mixed"}[uint64(seed)%3], []float64{2, 0.7}[uint64(seed)%2])
		for _, j := range []*J48{NewJ48(), {MinLeaf: 1}} {
			sameTree(t, fmt.Sprintf("J48/minLeaf=%v", j.MinLeaf), j.Fit(d).(*Tree), refJ48Fit(j, d))
		}
		rt := &RandomTree{MinLeaf: 1, Seed: seed}
		sameTree(t, "RandomTree", rt.Fit(d).(*Tree), refRandomTreeFit(rt, d))
	})
}
