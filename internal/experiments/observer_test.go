//go:build !race

package experiments

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// traceField is the part of a deploymentDigest line that only a traced
// deployment fills in.
var traceField = regexp.MustCompile(` trace=[0-9a-f]+ drops=[0-9]+`)

// TestTracingIsAnObserver runs every -exp at -quick -seed 3, and the
// reclaim-heavy scenario at seed 5, once with a tracer on every
// deployment and once with none, and requires the same report text and
// the same digest of every deployment, trace hash aside. The golden
// file pins the traced pass; ofc-bench and the benchmark's timed
// repetitions take the untraced one, which this compares to it.
//
// The file is left out of race builds. Under the detector a binary's
// memory grows with every full sweep it runs: TestEveryExperimentRepeats
// alone peaks at 4.1 GB, and with this test beside it a race binary of
// the package reached 7.8 GB and was killed on an 8 GB machine. The
// test compares outputs, which the detector cannot change.
func TestTracingIsAnObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the quick sweep twice")
	}
	run := func(traced bool) []string {
		obs := observeDeployments(t, traced)
		var lines []string
		for _, e := range Registry(nil, nil) {
			var r Report
			e.Run(&r, 3, true)
			text := r.String()
			if e.ID == "fig6" {
				text = hostClockCells.ReplaceAllString(text, "#")
			}
			lines = append(lines, "== -exp "+e.ID)
			lines = append(lines, strings.Split(text, "\n")...)
			lines = append(lines, obs.drain()...)
		}
		lines = append(lines, "== reclaim-heavy")
		lines = append(lines, reclaimHeavy(t, 5)...)
		for i := range lines {
			lines[i] = traceField.ReplaceAllString(lines[i], "")
		}
		return lines
	}
	traced, untraced := run(true), run(false)
	if !reflect.DeepEqual(traced, untraced) {
		t.Errorf("tracing changed what the run did, %s", firstDiff(traced, untraced))
	}
}
