package memctl

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
)

// conformance is the contract every eviction policy must satisfy (see
// the EvictionPolicy doc): deterministic victim selection that does not
// follow the census order. PlanReclaim is held to the same order
// independence.

// allPolicies instantiates every registered eviction policy.
func allPolicies(t *testing.T) map[string]func() EvictionPolicy {
	t.Helper()
	out := map[string]func() EvictionPolicy{}
	for _, name := range EvictionPolicies() {
		name := name
		out[name] = func() EvictionPolicy {
			p, err := NewEviction(name, DefaultParams())
			if err != nil {
				t.Fatalf("NewEviction(%q): %v", name, err)
			}
			return p
		}
	}
	return out
}

// genView builds a randomized but seed-deterministic census: a mix of
// kinds, dirt, ages, access counts and sizes, in a fixed order. The
// grant sits just under usage, so the watermark policies have trimming
// to do.
func genView(seed int64, n int) View {
	rng := rand.New(rand.NewSource(seed))
	now := sim.Time(2 * time.Hour)
	objs := make([]Object, 0, n)
	kinds := []kvstore.Kind{kvstore.KindInput, kvstore.KindIntermediate, kvstore.KindFinal}
	for i := 0; i < n; i++ {
		created := sim.Time(rng.Int63n(int64(2 * time.Hour)))
		last := created + sim.Time(rng.Int63n(int64(now-created)+1))
		dirty := rng.Intn(4) == 0
		objs = append(objs, Object{
			Key: fmt.Sprintf("obj/%03d", i),
			Meta: kvstore.Meta{
				Size:       1 + rng.Int63n(8<<20),
				Created:    created,
				NAccess:    rng.Int63n(12),
				LastAccess: last,
				State:      kvstore.State{Kind: kinds[rng.Intn(len(kinds))], Dirty: dirty},
			},
		})
	}
	var used int64
	for _, o := range objs {
		used += o.Meta.Size
	}
	return View{Now: now, Objects: objs, Used: used, Limit: used + used/10}
}

// feed warms a policy's internal state the same way twice: admissions
// with seed-derived benefit scores.
func feed(p EvictionPolicy, v View, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, o := range v.Objects {
		p.Admitted(o.Key, rng.Float64())
	}
}

// censusSeeds are the census draws the conformance tests run over.
var censusSeeds = []int64{42, 43, 44}

func TestConformanceDeterminism(t *testing.T) {
	for name, mk := range allPolicies(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range censusSeeds {
				v := genView(seed, 80)
				a, b := mk(), mk()
				feed(a, v, 7)
				feed(b, v, 7)
				va, vb := a.Victims(v), b.Victims(v)
				if !reflect.DeepEqual(va, vb) {
					t.Fatalf("seed=%d: two identically-fed instances disagree:\n%v\nvs\n%v", seed, keys(va), keys(vb))
				}
				// The same instance asked twice about the same view must
				// answer consistently as well (GDSF's clock only advances
				// on evictions it proposed; re-asking reflects them, so
				// compare key sets of a fresh twin instead).
				c := mk()
				feed(c, v, 7)
				if vc := c.Victims(v); !reflect.DeepEqual(va, vc) {
					t.Fatalf("seed=%d: third instance disagrees", seed)
				}
			}
		})
	}
}

// TestConformanceCensusOrderIrrelevant: the engine lists a node's
// objects in map order, so a policy's answer may depend on what is in
// the census but never on how it is ordered. Access times are coarse
// enough to collide, which is where an ordering that is not total
// shows.
func TestConformanceCensusOrderIrrelevant(t *testing.T) {
	views := func(seed int64) (View, View) {
		v := genView(seed, 80)
		for i := range v.Objects {
			v.Objects[i].Meta.LastAccess = v.Objects[i].Meta.LastAccess.Truncate(20 * time.Minute)
		}
		shuffled := v
		shuffled.Objects = append([]Object(nil), v.Objects...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Objects), func(i, j int) {
			shuffled.Objects[i], shuffled.Objects[j] = shuffled.Objects[j], shuffled.Objects[i]
		})
		return v, shuffled
	}
	for name, mk := range allPolicies(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range censusSeeds {
				v, shuffled := views(seed)
				a, b := mk(), mk()
				feed(a, v, 7)
				feed(b, v, 7)
				if va, vb := a.Victims(v), b.Victims(shuffled); !reflect.DeepEqual(va, vb) {
					t.Fatalf("seed=%d: victims follow the census order:\n%v\nshuffled:\n%v", seed, keys(va), keys(vb))
				}
			}
		})
	}
	t.Run("migratefirst", func(t *testing.T) {
		reused, _ := views(censusSeeds[len(censusSeeds)-1])
		for _, seed := range censusSeeds {
			v, shuffled := views(seed)
			var pa, pb Plan
			PlanReclaim(&pa, v.Objects)
			PlanReclaim(&pb, shuffled.Objects)
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("seed=%d: plan follows the census order:\n%+v\nshuffled:\n%+v", seed, pa, pb)
			}
			// A plan reused from another census is the fresh plan.
			PlanReclaim(&pb, reused.Objects)
			PlanReclaim(&pb, v.Objects)
			if !samePlan(pa, pb) {
				t.Fatalf("seed=%d: reused plan differs:\n%+v\nfresh:\n%+v", seed, pb, pa)
			}
			reused = v
		}
	})
}

// TestConformanceOvershootBound: the watermark policies trim occupancy
// back to highWater of the grant and stop at the first victim that
// gets there, so their victims exceed the trim by at most one object.
// (The threshold policy has no byte target: it frees every object the
// §6.3 criteria condemn.)
func TestConformanceOvershootBound(t *testing.T) {
	for _, name := range []string{"lru", "gdsf"} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				v := genView(seed, 100)
				v.Limit = v.Used
				need := v.Used - int64(highWater*float64(v.Limit))
				p, err := NewEviction(name, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				feed(p, v, seed)
				victims := p.Victims(v)
				var total int64
				for i, o := range victims {
					if total >= need {
						t.Fatalf("victim %d (%q) selected after the trim was already covered (%d >= %d)",
							i, o.Key, total, need)
					}
					total += o.Meta.Size
				}
				if total < need {
					t.Fatalf("victims free %d bytes, the trim needs %d", total, need)
				}
			}
		})
	}
}

// TestThresholdMatchesPaperCriteria pins the default policy to §6.3:
// n_access < 5 or idle > 30 min, with the one-period grace window, and
// the brownout tightening (no grace, idle bound quartered).
func TestThresholdMatchesPaperCriteria(t *testing.T) {
	p := NewThresholdEviction(DefaultParams())
	now := sim.Time(2 * time.Hour)
	obj := func(key string, age, idle time.Duration, n int64) Object {
		return Object{Key: key, Meta: kvstore.Meta{
			Size: 1 << 20, Created: now - sim.Time(age),
			LastAccess: now - sim.Time(idle), NAccess: n,
			State: kvstore.State{Kind: kvstore.KindInput},
		}}
	}
	v := View{Now: now, Objects: []Object{
		obj("young-cold", 2*time.Minute, time.Minute, 0), // inside grace window
		obj("hot", time.Hour, time.Minute, 9),            // survives
		obj("cold", time.Hour, time.Minute, 2),           // n_access < 5
		obj("idle", time.Hour, 31*time.Minute, 9),        // idle > 30 min
		obj("warm-idle8", time.Hour, 8*time.Minute, 9),   // survives normal, dies in brownout
	}}
	got := keys(p.Victims(v))
	want := []string{"cold", "idle"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normal sweep: got %v want %v", got, want)
	}
	v.Pressure = PressureBrownout
	got = keys(p.Victims(v))
	want = []string{"cold", "idle", "warm-idle8", "young-cold"} // key order
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("brownout sweep: got %v want %v", got, want)
	}
}

// TestGDSFPrefersHighBenefitSmallObjects pins the cost-aware ordering:
// with equal frequency, a large zero-benefit object is evicted before
// a small high-benefit one.
func TestGDSFPrefersHighBenefitSmallObjects(t *testing.T) {
	g := NewGDSFEviction()
	now := sim.Time(time.Hour)
	mk := func(key string, size int64) Object {
		return Object{Key: key, Meta: kvstore.Meta{
			Size: size, Created: 0, LastAccess: now, NAccess: 3,
			State: kvstore.State{Kind: kvstore.KindInput},
		}}
	}
	big, small := mk("big", 16<<20), mk("small", 1<<20)
	g.Admitted("big", 0.0)
	g.Admitted("small", 0.95)
	// A grant equal to usage: the trim to the watermark needs 1.7 MB,
	// which the first victim covers.
	used := big.Meta.Size + small.Meta.Size
	v := View{Now: now, Objects: []Object{small, big}, Used: used, Limit: used}
	victims := g.Victims(v)
	if len(victims) != 1 || victims[0].Key != "big" {
		t.Fatalf("expected big low-benefit object first, got %v", keys(victims))
	}
}

// TestWindowSlack pins the estimator to the pre-refactor semantics:
// no opinion while empty, then clamp(max(window)).
func TestWindowSlack(t *testing.T) {
	w := NewWindowSlack()
	if _, ok := w.Target(); ok {
		t.Fatal("empty window must have no opinion")
	}
	w.Observe(10 << 20) // below minSlack
	if got, _ := w.Target(); got != minSlack {
		t.Fatalf("clamped min: got %d want %d", got, minSlack)
	}
	w.Observe(200 << 20)
	if got, _ := w.Target(); got != 200<<20 {
		t.Fatalf("window max: got %d want %d", got, int64(200<<20))
	}
	// Push the large sample out of the window.
	for i := 0; i < churnWindow; i++ {
		w.Observe(80 << 20)
	}
	if got, _ := w.Target(); got != 80<<20 {
		t.Fatalf("after trim: got %d want %d", got, int64(80<<20))
	}
	w2 := NewWindowSlack()
	w2.Observe(int64(4) << 40) // above maxSlack
	if got, _ := w2.Target(); got != maxSlack {
		t.Fatalf("clamped max: got %d want %d", got, maxSlack)
	}
}

// TestMigrateFirstPlannerShape pins PlanReclaim to the §6.4 phase
// structure: clean finals first (key order), dirty write-backs, then
// LRU-ordered inputs. A stripe is in no phase: it goes with its object.
func TestMigrateFirstPlannerShape(t *testing.T) {
	obj := func(key string, kind kvstore.Kind, dirty bool, last time.Duration) Object {
		return Object{Key: key, Meta: kvstore.Meta{
			Size: 1 << 20, LastAccess: sim.Time(last),
			State: kvstore.State{Kind: kind, Dirty: dirty},
		}}
	}
	var plan Plan
	PlanReclaim(&plan, []Object{
		obj("in-new", kvstore.KindInput, false, 40*time.Minute),
		obj("fin-clean", kvstore.KindFinal, false, 10*time.Minute),
		obj("fin-dirty", kvstore.KindFinal, true, 20*time.Minute),
		obj("in-old", kvstore.KindInput, false, 5*time.Minute),
		obj("mid", kvstore.KindIntermediate, false, 30*time.Minute),
		obj("big#0", kvstore.KindChunk, false, time.Minute),
	})
	if got, want := keys(plan.First), []string{"fin-clean"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("First: got %v want %v", got, want)
	}
	if got, want := keys(plan.WriteBacks), []string{"fin-dirty"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteBacks: got %v want %v", got, want)
	}
	if got, want := keys(plan.Second), []string{"in-old", "mid", "in-new"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Second: got %v want %v", got, want)
	}
}

// TestRegistry pins the registry surface: every advertised name
// builds, unknown names error, empty spec yields the paper's defaults.
func TestRegistry(t *testing.T) {
	p := DefaultParams()
	for _, n := range EvictionPolicies() {
		if _, err := NewEviction(n, p); err != nil {
			t.Fatalf("eviction %q: %v", n, err)
		}
	}
	for _, n := range SlackEstimators() {
		if _, err := NewSlack(n); err != nil {
			t.Fatalf("slack %q: %v", n, err)
		}
	}
	if _, err := NewEviction("bogus", p); err == nil {
		t.Fatal("unknown eviction name must error")
	}
	if _, err := Build(Spec{Eviction: "bogus"}, p); err == nil {
		t.Fatal("Build with unknown name must error")
	}
	def, err := Build(Spec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	_, threshold := def.Eviction.(*ThresholdEviction)
	_, window := def.Slack.(*WindowSlack)
	if !threshold || !window {
		t.Fatalf("empty spec must build the paper's defaults, got %T/%T", def.Eviction, def.Slack)
	}
}

func keys(objs []Object) []string {
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		out = append(out, o.Key)
	}
	return out
}

// samePlan reports whether two plans hold the same steps in the same
// order, whatever room their slices have.
func samePlan(a, b Plan) bool {
	return slices.Equal(a.First, b.First) && slices.Equal(a.WriteBacks, b.WriteBacks) && slices.Equal(a.Second, b.Second)
}
