package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ofc/internal/trace"
)

// goldenTracePath is the pinned export of the fixed-seed trace drill.
// Regenerate with:
//
//	OFC_REGEN_GOLDEN=1 go test ./internal/experiments -run TestGoldenTrace
const goldenTracePath = "testdata/golden_trace.json"

// TestGoldenTrace pins the canonicalized Chrome-trace export of the
// seed-1 drill byte for byte: any change to span structure, naming,
// timing or the exporter's encoding shows up as a diff here.
func TestGoldenTrace(t *testing.T) {
	_, res := TraceDrill(1)
	if res.Drops != 0 {
		t.Fatalf("trace drill dropped %d spans; golden comparison needs a complete trace", res.Drops)
	}
	var buf bytes.Buffer
	if err := trace.ExportChrome(&buf, res.Spans); err != nil {
		t.Fatalf("export: %v", err)
	}
	if os.Getenv("OFC_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes, %d spans)", goldenTracePath, buf.Len(), len(res.Spans))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden (regenerate with OFC_REGEN_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exported trace differs from %s (got %d bytes, want %d); "+
			"if the change is intentional regenerate with OFC_REGEN_GOLDEN=1",
			goldenTracePath, buf.Len(), len(want))
	}
}

// TestTraceDrillDeterministic runs the drill twice in-process and
// demands bit-identical exports — the determinism contract the golden
// file relies on, checked without any filesystem state.
func TestTraceDrillDeterministic(t *testing.T) {
	export := func() []byte {
		_, res := TraceDrill(7)
		var buf bytes.Buffer
		if err := trace.ExportChrome(&buf, res.Spans); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("two seed-7 drills exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTraceDrillRawSpansRepeat runs the trace drill's deployment on one
// P and on four and requires the raw Tracer.Snapshot of both, span IDs
// and parent links as allocated, to be identical: the ID counter is the
// Tracer's own and one process runs per Env, so the Begin order is the
// same in every run.
func TestTraceDrillRawSpansRepeat(t *testing.T) {
	var d *Deployment
	deployed = func(dep *Deployment) { d = dep }
	t.Cleanup(func() { deployed = nil })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	raw := func(procs int) []trace.Span {
		runtime.GOMAXPROCS(procs)
		TraceDrill(1)
		return d.Sys.Tracer.Snapshot()
	}
	a, b := raw(1), raw(4)
	if len(a) == 0 {
		t.Fatal("drill recorded no spans")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("raw snapshots differ between GOMAXPROCS 1 and 4 (%d vs %d spans)", len(a), len(b))
	}
}

// TestTraceDrillWellFormed property-checks every span the drill
// records: unique IDs, parents that exist and precede their children,
// child intervals nested inside parents, sibling durations that do not
// exceed the parent — trace.Validate's full contract over a real run.
func TestTraceDrillWellFormed(t *testing.T) {
	_, res := TraceDrill(3)
	if res.Drops != 0 {
		t.Fatalf("dropped %d spans; well-formedness needs the full set", res.Drops)
	}
	if len(res.Spans) == 0 {
		t.Fatal("drill recorded no spans")
	}
	if err := trace.Validate(res.Spans); err != nil {
		t.Fatalf("drill trace ill-formed: %v", err)
	}
	// The drill must exercise the whole path: invoke, cache and RSDS
	// spans all present.
	seen := map[string]bool{}
	for i := range res.Spans {
		seen[res.Spans[i].Name] = true
	}
	for _, name := range []string{"invoke", "advice", "predict", "execute", "extract",
		"transform", "load", "cache.get", "cache.put", "rsds.fetch", "kv.read", "kv.write", "reclaim"} {
		if !seen[name] {
			t.Errorf("no %q span recorded by the drill", name)
		}
	}
}
