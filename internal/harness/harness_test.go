package harness

import (
	"testing"

	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

func requestsFor(spec AppSpec, n int, seed int64) []server.Request {
	reqs, err := workload.For(spec.Name, workload.Mixed, n, seed)
	if err != nil {
		panic(err)
	}
	return reqs
}

// TestEndToEndSmoke runs the full pipeline — serve with both advice
// collections, audit with the Karousos and Orochi-JS verifiers, and replay
// sequentially — for every application at two concurrency levels.
func TestEndToEndSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec AppSpec
		conc int
	}{
		{"motd-c1", MOTDApp(), 1},
		{"motd-c8", MOTDApp(), 8},
		{"stacks-c1", StacksApp(), 1},
		{"stacks-c8", StacksApp(), 8},
		{"wiki-c1", WikiApp(), 1},
		{"wiki-c8", WikiApp(), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := requestsFor(tc.spec, 60, 7)
			res, err := Serve(tc.spec, reqs, tc.conc, 42, CollectBoth)
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			if got := len(res.Trace.RIDs()); got != 60 {
				t.Fatalf("trace has %d requests, want 60", got)
			}
			if vr := VerifyKarousos(tc.spec, res.Trace, res.Karousos); vr.Err != nil {
				t.Errorf("karousos audit rejected honest run: %v", vr.Err)
			}
			if vr := VerifyOrochi(tc.spec, res.Trace, res.Orochi); vr.Err != nil {
				t.Errorf("orochi audit rejected honest run: %v", vr.Err)
			}
			if sr := VerifySequential(tc.spec, res.Trace); sr.Err != nil {
				t.Errorf("sequential replay failed: %v", sr.Err)
			} else if tc.conc == 1 && sr.Mismatched != 0 {
				t.Errorf("sequential replay at concurrency 1 mismatched %d responses", sr.Mismatched)
			}
		})
	}
}
