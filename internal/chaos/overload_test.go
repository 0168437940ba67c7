package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// requireSound fails the test on any recorded invariant violation and on
// an empty run (a scenario that admitted nothing proves nothing).
func requireSound(t *testing.T, res *OverloadResult) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Load.OK == 0 {
		t.Fatalf("overload run admitted nothing: %+v", res.Load)
	}
	if res.Sealed == 0 {
		t.Fatalf("overload run sealed nothing")
	}
	if len(res.Verdicts) != res.Sealed {
		t.Fatalf("%d verdicts for %d sealed epochs", len(res.Verdicts), res.Sealed)
	}
	if res.Stats1.Requests != res.Load.OK {
		t.Fatalf("audit re-executed %d requests, collector acked %d", res.Stats1.Requests, res.Load.OK)
	}
}

// TestOverloadBurst offers a pure burst at 4× the admission window: the
// run must shed the excess (locally or with 429s), keep the admission
// gauges bounded, lose no acked evidence, and audit clean at both worker
// counts.
func TestOverloadBurst(t *testing.T) {
	res, err := RunOverload(t.TempDir(), OverloadScenario{
		App:           "motd",
		Seed:          42,
		Requests:      96,
		EpochRequests: 16,
		MaxInflight:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSound(t, res)
	if res.Load.Shed429+res.Load.ShedLocal == 0 {
		t.Fatalf("a 4x-window burst shed nothing: %+v", res.Load)
	}
	if res.Load.Shed429 > 0 && !res.Load.RetryAfterSeen {
		t.Fatalf("429s carried no Retry-After hint: %+v", res.Load)
	}
}

// TestOverloadSlowFsync slows every trace-file I/O call, so each group
// commit's fsync stalls and pressure backs up into the admission window.
func TestOverloadSlowFsync(t *testing.T) {
	res, err := RunOverload(t.TempDir(), OverloadScenario{
		App:           "motd",
		Seed:          7,
		Requests:      48,
		EpochRequests: 8,
		MaxInflight:   4,
		Chaos:         OverloadSlowFsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSound(t, res)
}

// TestOverloadSlowClient trickles every 4th request body a few bytes at a
// time. Slow bodies are read before admission, so they must tie up neither
// admission slots nor the commit path — and everything admitted still
// audits clean.
func TestOverloadSlowClient(t *testing.T) {
	res, err := RunOverload(t.TempDir(), OverloadScenario{
		App:           "stacks",
		Seed:          13,
		Requests:      32,
		EpochRequests: 8,
		MaxInflight:   4,
		Chaos:         OverloadSlowClient,
		SlowEvery:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSound(t, res)
}

// TestCommitModeDifferential drives the identical sequential workload
// through a group-commit collector and a per-request-fsync collector: the
// sealed evidence must be bit-identical (same epoch trace digests) and the
// audit must reach the same verdicts with the same work counters. Group
// commit is a durability batching strategy, never a semantic one.
func TestCommitModeDifferential(t *testing.T) {
	spec := harness.MOTDApp()
	reqs := workload.MOTD(24, workload.Mixed, 11)

	type observed struct {
		digests  []string
		verdicts string
		stats    verifier.Stats
	}
	runMode := func(mode collectorhttp.CommitMode) observed {
		t.Helper()
		dir := t.TempDir()
		c, err := collectorhttp.New(collectorhttp.Config{
			Spec:          spec,
			Dir:           dir,
			Seed:          11,
			EpochRequests: 8,
			Commit:        mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(c.Handler())
		for _, r := range reqs {
			body, err := json.Marshal(map[string]any{"input": r.Input})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %q: invoke status %d", mode, resp.StatusCode)
			}
		}
		ts.Close()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		sealed, err := epochlog.ListSealed(dir)
		if err != nil {
			t.Fatal(err)
		}
		var o observed
		for _, m := range sealed {
			o.digests = append(o.digests, fmt.Sprintf("%d:%s", m.Seq, m.TraceDigest))
		}
		verdicts, stats, err := AuditSealedAt(context.Background(), dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, v := range verdicts {
			fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
			if !v.Accepted() {
				t.Fatalf("mode %q: epoch %d graded %s: %s", mode, v.Epoch, v.Code, v.Reason)
			}
		}
		o.verdicts, o.stats = b.String(), stats
		return o
	}

	group := runMode(collectorhttp.CommitGroup)
	perReq := runMode(collectorhttp.CommitPerRequest)

	if len(group.digests) != len(perReq.digests) {
		t.Fatalf("epoch counts differ: group %d, per-request %d", len(group.digests), len(perReq.digests))
	}
	for i := range group.digests {
		if group.digests[i] != perReq.digests[i] {
			t.Fatalf("epoch digest %d differs:\n  group       %s\n  per-request %s",
				i, group.digests[i], perReq.digests[i])
		}
	}
	if group.verdicts != perReq.verdicts {
		t.Fatalf("verdicts differ: group %q, per-request %q", group.verdicts, perReq.verdicts)
	}
	if group.stats != perReq.stats {
		t.Fatalf("audit stats differ: group %+v, per-request %+v", group.stats, perReq.stats)
	}
}
