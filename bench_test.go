package ofc

// One benchmark per experiment ofc-bench serves under -exp, at -quick:
// `make bench` times every table and figure of the paper's evaluation
// end to end. The reproduced quantities themselves are what
// `-exp summary` prints (`make scorecard`).

import (
	"testing"

	"ofc/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry(nil, nil) {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r experiments.Report
				e.Run(&r, 1, true)
				if r.Len() == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}
