// Benchmarks: the experiments registry under testing.B — one entry per
// measure of every figure panel of the paper's evaluation (Figures 6–12,
// §6 and Appendix B) and of Figures 13–15, plus the audit components,
// worker sweep, batching ablation and parallel serving. Each entry times
// the quantity its figure plots at a representative concurrency; the full
// sweeps live in cmd/karousos-bench, which renders the same figure table.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Figures/fig7c' .   # one panel
package karousos_test

import (
	"testing"

	"karousos.dev/karousos/internal/experiments"
)

// benchRequests keeps go-bench iterations affordable while preserving the
// figures' shapes; cmd/karousos-bench defaults to the paper's 600.
const benchRequests = 300

func BenchmarkFigures(b *testing.B) {
	for _, bm := range experiments.Benchmarks(benchRequests) {
		b.Run(bm.Name, bm.Fn)
	}
}
