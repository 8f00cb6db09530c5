package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// The schedule test drives every cluster operation over a handful of
// keys, on seeded schedules and on scripted cases, and records each
// result and, after each step, the whole store: placements, and each
// server's masters, buffered replicas and disk replicas, sorted by key.
// The text is compared with testdata/schedule.golden. The scripted
// cases evict and rewrite a key while a read, a replication round, a
// flush, a promotion, a full migration or a recovery of it is in
// flight, with a fresh key written in between; the key keeps its
// identity across those steps, so the in-flight step sees whatever the
// key holds when it lands, and never the fresh key's copy.

// schedNodes fabric nodes, 0 to 3 with a storage server each; node 4
// hosts none.
const schedNodes = 5

// schedLog is the text a schedule run leaves.
type schedLog struct {
	t    *testing.T
	b    strings.Builder
	env  *sim.Env
	c    *Cluster
	last string // the store as the last step left it
}

// step records one line about a finished step, then the store, or "="
// when the store is as the previous step left it; the key table must
// agree with the store's tables.
func (l *schedLog) step(format string, args ...any) {
	checkKeyTable(l.t, l.c, false)
	fmt.Fprintf(&l.b, "t=%d ", l.env.Now())
	fmt.Fprintf(&l.b, format, args...)
	l.b.WriteByte('\n')
	if d := dumpStore(l.c); d != l.last {
		l.b.WriteString(d)
		l.last = d
	} else {
		l.b.WriteString("  =\n")
	}
}

// fmtMeta renders the metadata of a copy.
func fmtMeta(m Meta) string {
	dirty := ""
	if m.State.Dirty {
		dirty = "D"
	}
	return fmt.Sprintf("v%d/%dB n%d la%d c%d k%d%s/p%d", m.Version, m.Size, m.NAccess, m.LastAccess, m.Created,
		m.State.Kind, dirty, m.State.PersistVersion)
}

// fmtErr renders an error, or "ok".
func fmtErr(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// dumpStore renders the placements, every server's log accounting,
// masters, RAM-buffered and disk replicas, each sorted by key, and the
// cluster's counters.
func dumpStore(c *Cluster) string {
	var b strings.Builder
	places := storePlaces(c)
	keys := slices.Sorted(mapKeys(places))
	b.WriteString("  places:")
	for _, k := range keys {
		p := places[k]
		fmt.Fprintf(&b, " %s@%d%v/%dB", k, p.master, p.nodes, p.size)
	}
	b.WriteByte('\n')
	for node := simnet.NodeID(0); node < schedNodes; node++ {
		s := c.Server(node)
		if s == nil {
			continue
		}
		alloc, live, cleanings, moved := s.LogStats()
		fmt.Fprintf(&b, "  s%d down=%v log=%d/%d/%d/%d\n", node, s.Down(), alloc, live, cleanings, moved)
		masters, buffered, disk := serverCopies(c, node)
		for _, part := range []struct {
			name string
			m    map[string]Meta
		}{{"m", masters}, {"b", buffered}, {"d", disk}} {
			if len(part.m) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %s:", part.name)
			for _, k := range slices.Sorted(mapKeys(part.m)) {
				fmt.Fprintf(&b, " %s=%s", k, fmtMeta(part.m[k]))
			}
			b.WriteByte('\n')
		}
		objs := c.Objects(nil, node)
		slices.SortFunc(objs, func(x, y ObjectInfo) int { return strings.Compare(x.Key, y.Key) })
		if len(objs) != len(masters) {
			fmt.Fprintf(&b, "    Objects: %d, masters %d\n", len(objs), len(masters))
		}
		for _, o := range objs {
			if m, ok := masters[o.Key]; !ok || m != o.Meta {
				fmt.Fprintf(&b, "    Objects: %s=%s disagrees\n", o.Key, fmtMeta(o.Meta))
			}
		}
	}
	fmt.Fprintf(&b, "  stats: %+v used=%d\n", c.Stats(), c.TotalUsed())
	return b.String()
}

// mapKeys is maps.Keys for the dump's maps.
func mapKeys[V any](m map[string]V) func(func(string) bool) {
	return func(yield func(string) bool) {
		for k := range m {
			if !yield(k) {
				return
			}
		}
	}
}

// schedPlace is a placement as the dump shows it.
type schedPlace struct {
	master simnet.NodeID
	nodes  []simnet.NodeID
	size   int64
}

// storePlaces reads the coordinator's placements by key.
func storePlaces(c *Cluster) map[string]schedPlace {
	out := make(map[string]schedPlace)
	for k, p := range c.places.byKey() {
		out[k] = schedPlace{master: p.master, nodes: slices.Clone(p.backups.list()), size: p.size}
	}
	return out
}

// serverCopies reads node's master copies, RAM-buffered replicas and
// disk replicas by key.
func serverCopies(c *Cluster, node simnet.NodeID) (masters, buffered, disk map[string]Meta) {
	s := c.Server(node)
	masters, buffered, disk = make(map[string]Meta), make(map[string]Meta), make(map[string]Meta)
	for k, o := range s.log.byKey() {
		masters[k] = o.meta
	}
	for k, r := range s.backups.byKey() {
		buffered[k] = r.meta
	}
	for k, r := range s.disk.byKey() {
		disk[k] = r.meta
	}
	return masters, buffered, disk
}

// newSchedCluster builds the schedule's fabric and store: servers on
// nodes 0 to 3 with grants of 3, 4, 4 and 5 MB, the coordinator on
// node 0.
func newSchedCluster(env *sim.Env) (*Cluster, *simnet.Network) {
	net := simnet.New(env)
	for i := 0; i < schedNodes; i++ {
		net.AddNode("n")
	}
	c := New(net, 0, Config{CrashDetectTimeout: 2 * time.Millisecond})
	for i, grant := range []int64{3 << 20, 4 << 20, 4 << 20, 5 << 20} {
		c.AddServer(simnet.NodeID(i), grant)
	}
	return c, net
}

// schedRun starts a process at `at` that runs op and records its line.
func (l *schedLog) run(at time.Duration, op func() string) {
	l.env.After(at, func() {
		start := l.env.Now()
		line := op()
		l.step("start=%d %s", start, line)
	})
}

// seededSchedule draws n operations of every kind over six keys from
// rng across a 60 ms window, plus crashes with restarts and recoveries.
func seededSchedule(l *schedLog, rng *rand.Rand, n int) {
	c := l.c
	const window = 60 * time.Millisecond
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(6)) }
	node := func() simnet.NodeID { return simnet.NodeID(rng.Intn(schedNodes)) }
	size := func() int64 {
		if rng.Intn(8) == 0 {
			return 1<<20 + rng.Int63n(4<<20) // may not fit any grant: ErrNoSpace
		}
		return 1 + rng.Int63n(768<<10)
	}
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(window)))
		k, caller, sz := key(), node(), size()
		st := State{Kind: Kind(rng.Intn(3)), Dirty: rng.Intn(2) == 0, PersistVersion: uint64(rng.Intn(4))}
		switch r := rng.Intn(20); {
		case r < 5:
			l.run(at, func() string {
				v, err := c.Write(caller, k, Synthetic(sz), &st, caller)
				return fmt.Sprintf("Write(%d,%s,%dB) v%d %s", caller, k, sz, v, fmtErr(err))
			})
		case r < 9:
			l.run(at, func() string {
				_, m, err := c.Read(caller, k)
				return fmt.Sprintf("Read(%d,%s) %s %s", caller, k, fmtMeta(m), fmtErr(err))
			})
		case r < 10:
			keys := []string{k, key(), key()}
			l.run(at, func() string {
				res := c.ReadMulti(caller, keys)
				var b strings.Builder
				for j, r := range res {
					fmt.Fprintf(&b, " %s:v%d:%s", keys[j], r.Meta.Version, fmtErr(r.Err))
				}
				return fmt.Sprintf("ReadMulti(%d)%s", caller, b.String())
			})
		case r < 11:
			items := []WriteItem{{Key: k, Blob: Synthetic(sz), State: st}, {Key: key(), Blob: Synthetic(size())}}
			l.run(at, func() string {
				res := c.WriteMulti(caller, items, caller)
				var b strings.Builder
				for j, r := range res {
					fmt.Fprintf(&b, " %s/%dB:v%d:%s", items[j].Key, items[j].Blob.Size, r.Version, fmtErr(r.Err))
				}
				return fmt.Sprintf("WriteMulti(%d)%s", caller, b.String())
			})
		case r < 13:
			l.run(at, func() string { return fmt.Sprintf("Evict(%s) %s", k, fmtErr(c.Evict(k, 0))) })
		case r < 15:
			l.run(at, func() string {
				return fmt.Sprintf("MarkClean(%d,%s) %s", caller, k, fmtErr(c.MarkClean(caller, k, 0)))
			})
		case r < 16:
			l.run(at, func() string { return fmt.Sprintf("MigrateToBackup(%s) %s", k, fmtErr(c.MigrateToBackup(k, 0))) })
		case r < 17:
			dest := simnet.NodeID(rng.Intn(4))
			l.run(at, func() string {
				return fmt.Sprintf("MigrateFull(%s,%d) %s", k, dest, fmtErr(c.MigrateFull(k, dest)))
			})
		case r < 18:
			l.run(at, func() string {
				m, ok := c.MasterOf(k)
				loc := c.Locate(nil, []string{k, "absent"})
				return fmt.Sprintf("MasterOf(%s) %d %v Locate %+v", k, m, ok, loc)
			})
		default:
			victim := simnet.NodeID(rng.Intn(4))
			down := time.Duration(1+rng.Intn(8)) * time.Millisecond
			detect := rng.Intn(2) == 0
			l.run(at, func() string {
				c.Crash(victim)
				l.step("Crash(%d)", victim)
				var rec string
				if detect {
					n, d := c.Recover(victim)
					rec = fmt.Sprintf("Recover(%d) %d in %v", victim, n, d)
				} else {
					l.env.Sleep(down / 2)
					rec = fmt.Sprintf("RecoverNode(%d) %d", victim, c.RecoverNode(victim))
				}
				l.step("%s", rec)
				l.env.Sleep(down)
				c.Restart(victim)
				return fmt.Sprintf("Restart(%d) after %v", victim, down)
			})
		}
	}
}

// reuseCase scripts one eviction and rewrite of key "r" while an
// operation on it is in flight: node 1 writes "r" (size), then at 20 ms,
// once that write and its flushes are done, inflight runs; at 20 ms +
// gap "r" is evicted, node 2 writes a fresh key "x", then rewriter
// writes "r" again at 1 KB.
func reuseCase(l *schedLog, size int64, gap time.Duration, rewriter simnet.NodeID, inflight func() string) {
	const lead = 20 * time.Millisecond
	c := l.c
	l.run(0, func() string {
		v, err := c.Write(1, "r", Synthetic(size), &State{Kind: KindFinal, Dirty: true}, 1)
		return fmt.Sprintf("Write(1,r,%dB) v%d %s", size, v, fmtErr(err))
	})
	l.run(lead, inflight)
	l.run(lead+gap, func() string {
		err := c.Evict("r", 0)
		v1, err1 := c.Write(2, "x", Synthetic(2<<10), nil, 2)
		v2, err2 := c.Write(rewriter, "r", Synthetic(1<<10), nil, rewriter)
		return fmt.Sprintf("Evict(r) %s; Write(2,x) v%d %s; Write(%d,r) v%d %s", fmtErr(err), v1, fmtErr(err1), rewriter, v2, fmtErr(err2))
	})
}

// reuseGaps are the instants, after the in-flight operation starts, at
// which the scripted cases evict and rewrite its key.
var reuseGaps = []time.Duration{5 * time.Microsecond, 20 * time.Microsecond, 60 * time.Microsecond,
	150 * time.Microsecond, 400 * time.Microsecond, 900 * time.Microsecond, 2500 * time.Microsecond,
	6 * time.Millisecond, 15 * time.Millisecond}

// scriptedCases are the identity-reuse cases, each on a fresh cluster
// per gap.
var scriptedCases = []struct {
	name string
	gaps []time.Duration
	run  func(l *schedLog, gap time.Duration)
}{
	{"read", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			_, m, err := l.c.Read(3, "r")
			return fmt.Sprintf("Read(3,r) %s %s", fmtMeta(m), fmtErr(err))
		})
	}},
	{"readmulti", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			res := l.c.ReadMulti(3, []string{"r", "x"})
			return fmt.Sprintf("ReadMulti(3,r,x) v%d %s v%d %s", res[0].Meta.Version, fmtErr(res[0].Err), res[1].Meta.Version, fmtErr(res[1].Err))
		})
	}},
	{"round", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			v, err := l.c.Write(1, "r", Synthetic(2<<20), nil, 1)
			return fmt.Sprintf("Write(1,r,2MB) v%d %s", v, fmtErr(err))
		})
	}},
	{"flush", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			v, err := l.c.Write(1, "r", Synthetic(3<<20/2), nil, 1)
			return fmt.Sprintf("Write(1,r,1.5MB) v%d %s; flushes follow", v, fmtErr(err))
		})
	}},
	{"promotion", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 2<<20, gap, 1, func() string {
			return fmt.Sprintf("MigrateToBackup(r) %s", fmtErr(l.c.MigrateToBackup("r", 0)))
		})
	}},
	{"fullmove", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 2<<20, gap, 1, func() string {
			return fmt.Sprintf("MigrateFull(r,3) %s", fmtErr(l.c.MigrateFull("r", 3)))
		})
	}},
	{"markclean", reuseGaps, func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			return fmt.Sprintf("MarkClean(3,r) %s", fmtErr(l.c.MarkClean(3, "r", 0)))
		})
	}},
	// A new key and an overwrite, each too large for any grant: the new
	// key's speculative placement is undone, the overwritten key keeps
	// its placement and its old copy.
	{"nospace", reuseGaps[:3], func(l *schedLog, gap time.Duration) {
		reuseCase(l, 64<<10, gap, 1, func() string {
			v1, err1 := l.c.Write(1, "big", Synthetic(6<<20), nil, 1)
			v2, err2 := l.c.Write(1, "r", Synthetic(6<<20), nil, 1)
			return fmt.Sprintf("Write(1,big,6MB) v%d %s; Write(1,r,6MB) v%d %s", v1, fmtErr(err1), v2, fmtErr(err2))
		})
	}},
	// Recovery detects the crash for 2 ms, then promotes its victims
	// "a", "b", "c", "r" and "s" in key order: the gaps land in the
	// detection, in the promotions before "r"'s while "r" waits its
	// turn (the fresh key placed meanwhile), in "r"'s and after.
	{"recovery", []time.Duration{time.Millisecond, 2010 * time.Microsecond, 2040 * time.Microsecond,
		2070 * time.Microsecond, 2100 * time.Microsecond, 2150 * time.Microsecond, 2200 * time.Microsecond,
		2250 * time.Microsecond, 3 * time.Millisecond},
		func(l *schedLog, gap time.Duration) {
			for _, k := range []string{"a", "b", "c", "s"} {
				l.run(0, func() string {
					v, err := l.c.Write(1, k, Synthetic(512<<10), nil, 1)
					return fmt.Sprintf("Write(1,%s) v%d %s", k, v, fmtErr(err))
				})
			}
			reuseCase(l, 1<<20, gap, 2, func() string {
				l.c.Crash(1)
				n, d := l.c.Recover(1)
				return fmt.Sprintf("Crash(1) Recover(1) %d in %v", n, d)
			})
		}},
}

// TestScheduleGolden runs two seeded schedules of 120 operations and
// every scripted case at each of its gaps, and compares the text with
// testdata/schedule.golden (regenerate with OFC_REGEN_GOLDEN=1). Each
// case is a subtest named as its header there. After every step the
// interned keys must agree with the tables and the placements with the
// master copies (checkKeyTable), and once a run has drained, every
// reference must belong to a table entry.
func TestScheduleGolden(t *testing.T) {
	var out strings.Builder
	// runCase runs one case as a subtest, named as its golden header.
	runCase := func(name string, schedule func(l *schedLog)) {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			c, _ := newSchedCluster(env)
			l := &schedLog{t: t, env: env, c: c}
			schedule(l)
			l.env.Run()
			checkKeyTable(t, l.c, true)
			fmt.Fprintf(&out, "== %s: %d events\n%s", name, l.env.Events(), l.b.String())
		})
	}
	for _, seed := range []int64{1, 2} {
		runCase(fmt.Sprintf("seed %d", seed), func(l *schedLog) { seededSchedule(l, rand.New(rand.NewSource(seed)), 120) })
	}
	for _, sc := range scriptedCases {
		for _, gap := range sc.gaps {
			runCase(fmt.Sprintf("%s, gap %v", sc.name, gap), func(l *schedLog) { sc.run(l, gap) })
		}
	}
	if t.Failed() {
		return
	}
	const golden = "testdata/schedule.golden"
	if os.Getenv("OFC_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with OFC_REGEN_GOLDEN=1): %v", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, golden, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), golden, len(wl))
	}
}
