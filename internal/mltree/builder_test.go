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
// hold the same tables. JSON prints a float64 as the shortest string
// that reads back to the same bits, so equal bytes are equal
// thresholds and distributions, bit for bit.
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
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tables differ from the reference builder's", name)
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

// TestFitOfGrowingDatasetMatchesFresh: a dataset keeps its class weights
// across fits and adds only the rows appended since, so a refit of a
// grown dataset, a fit of its Subset and a refit after more Adds must
// each grow the tree a fresh copy of the same rows grows, to the bit.
// The first 60 rows are one class, so the early fits are the one-leaf
// refits the kept weights serve; the 0.7 weight shows the order of
// every sum in its low bits.
func TestFitOfGrowingDatasetMatchesFresh(t *testing.T) {
	src := tieDataset(11, 320, 3, 24, "mixed", 0.7)
	for i := range src.Instances[:60] {
		src.Instances[i].Class = 1
	}
	fresh := func(rows []Instance) *Dataset {
		d := NewDataset(src.Attrs, src.Classes)
		for _, in := range rows {
			d.AddWeighted(in.Vals, in.Class, in.Weight)
		}
		return d
	}
	grown := NewDataset(src.Attrs, src.Classes)
	j, sub := NewJ48(), NewJ48()
	for n, in := range src.Instances {
		if n%2 == 0 {
			grown.Add(in.Vals, in.Class) // weight 1, as Add appends it
			src.Instances[n].Weight = 1
		} else {
			grown.AddWeighted(in.Vals, in.Class, in.Weight)
		}
		if n%23 != 0 && n != src.Len()-1 {
			continue
		}
		rows := src.Instances[:n+1]
		name := fmt.Sprintf("rows=%d", n+1)
		sameTree(t, name, j.Fit(grown).(*Tree), refJ48Fit(j, fresh(rows)))
		half := grown.Subset(grown.Instances[:n/2+1])
		sameTree(t, name+"/subset", sub.Fit(half).(*Tree), refJ48Fit(sub, fresh(rows[:n/2+1])))
	}
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

// TestPrunedMiddleChildKeepsLaterSibling: a nominal root whose middle
// subtree, itself a nominal split, collapses while the subtree after it
// is kept. The collapse must cut the middle subtree's child slots off
// the table before the later sibling reserves its own, so that
// sibling's slots start right after the root's.
func TestPrunedMiddleChildKeepsLaterSibling(t *testing.T) {
	nominal := func(name string, k int) Attribute {
		a := Attribute{Name: name, Kind: Nominal}
		for v := 0; v < k; v++ {
			a.Values = append(a.Values, fmt.Sprint(name, v))
		}
		return a
	}
	d := NewDataset([]Attribute{nominal("a", 3), nominal("b", 3), nominal("c", 2)}, []string{"x", "y", "z"})
	for i := 0; i < 24; i++ {
		b, c := i%3, i%2
		d.Add([]float64{0, float64(b), float64(c)}, 0) // a=0: all x
		// a=1: mostly x, a little y in b=1 and b=2: a weak split on b
		// that pruning undoes.
		class := 0
		if i == 1 || i == 4 || i == 5 || i == 8 {
			class = 1
		}
		d.Add([]float64{1, float64(b), float64(c)}, class)
		d.Add([]float64{2, float64(b), float64(c)}, 1+c) // a=2: c decides y or z
	}
	j := NewJ48()
	unpruned := refJ48Root(&J48{MinLeaf: j.MinLeaf}, d)
	pruned := refJ48Root(j, d)
	if unpruned.attr != 0 || unpruned.children[1].isLeaf() || pruned.attr != 0 ||
		!pruned.children[1].isLeaf() || pruned.children[2].isLeaf() {
		t.Fatal("the data no longer grows a root split on a whose middle subtree pruning collapses while the last is kept")
	}
	tree := j.Fit(d).(*Tree)
	sameTree(t, "pruned middle child", tree, refJ48Fit(j, d))
	if last := tree.nodes[tree.children[2]]; last.C0 != 3 {
		t.Errorf("the kept sibling's child slots start at %d, want 3 (right after the root's)", last.C0)
	}
}
