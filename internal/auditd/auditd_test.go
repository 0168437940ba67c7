package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

func requestsFor(spec harness.AppSpec, n int, seed int64) []server.Request {
	reqs, err := workload.For(spec.Name, workload.Mixed, n, seed)
	if err != nil {
		panic(err)
	}
	return reqs
}

// TestPipelineAllAppsAccept is the tentpole E2E: every application served
// through the HTTP collector with epochs sealing mid-workload, the follower
// auditing while serving continues, and every epoch accepting.
func TestPipelineAllAppsAccept(t *testing.T) {
	for _, spec := range []harness.AppSpec{harness.MOTDApp(), harness.StacksApp(), harness.WikiApp()} {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunPipeline(context.Background(), spec, requestsFor(spec, 60, 9), PipelineOptions{
				Dir:           t.TempDir(),
				EpochRequests: 20,
				Seed:          42,
			})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			if res.Served != 60 {
				t.Errorf("served %d, want 60", res.Served)
			}
			if res.Sealed != 3 {
				t.Errorf("sealed %d epochs, want 3", res.Sealed)
			}
			if res.Accepted != res.Sealed || res.Status.Rejected != 0 {
				t.Errorf("accepted %d of %d (rejected %d)", res.Accepted, res.Sealed, res.Status.Rejected)
			}
		})
	}
}

// newLoopback serves the collector on an httptest server torn down with
// the test.
func newLoopback(t *testing.T, col *collectorhttp.Collector) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(col.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// driveHTTP posts each request's input through the collector's /invoke
// endpoint.
func driveHTTP(t *testing.T, ts *httptest.Server, reqs []server.Request) {
	t.Helper()
	for _, r := range reqs {
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
}

// TestCorruptedAdviceRejectsWithCode: corrupting a sealed epoch's advice
// with each faultinject byte operator produces a machine-readable rejection
// (almost always MalformedAdvice — the blob no longer decodes), never a
// panic or an accept.
func TestCorruptedAdviceRejectsWithCode(t *testing.T) {
	ref := t.TempDir()
	spec := harness.WikiApp()
	res, err := RunPipeline(context.Background(), spec, requestsFor(spec, 40, 9), PipelineOptions{
		Dir: ref, EpochRequests: 20, Seed: 42,
	})
	if err != nil || res.Sealed < 2 {
		t.Fatalf("pipeline: sealed %d, err %v", res.Sealed, err)
	}

	for _, op := range faultinject.Catalogue() {
		if op.Kind != faultinject.KindBytes {
			continue
		}
		t.Run(op.Name, func(t *testing.T) {
			dir := t.TempDir()
			ents, err := os.ReadDir(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(ref, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			target := filepath.Join(dir, "ep000002.advice")
			wire, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := op.Apply(7, wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(target, mutated, 0o644); err != nil {
				t.Fatal(err)
			}

			aud, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			accepted, err := aud.RunOnce(context.Background())
			if err == nil {
				// The operator may happen to produce a decodable blob that
				// still matches the trace (e.g. a truncation landing on the
				// frame boundary); that counts as no corruption applied.
				if string(mutated) == string(wire) {
					return
				}
				t.Fatalf("corrupted epoch accepted (%d accepted)", accepted)
			}
			var rej *Reject
			if !errors.As(err, &rej) {
				t.Fatalf("corruption produced a non-reject error: %v", err)
			}
			if rej.Epoch != 2 || rej.Code == "" || rej.Code == core.RejectInternalFault {
				t.Fatalf("reject = %+v, want coded rejection of epoch 2", rej)
			}
			if accepted != 1 {
				t.Errorf("accepted %d epochs before the reject, want 1", accepted)
			}
		})
	}
}

// TestCollectorRestartAuditsAccept: restarting the collector rebuilds the
// application from scratch. The restart boundary is recorded on the trusted
// channel (Manifest.Fresh), and the auditor must drop carried prior-epoch
// state there: with stale carry, the post-restart epochs — whose responses
// reflect the rebuilt state, not the pre-restart writes — would falsely
// reject.
func TestCollectorRestartAuditsAccept(t *testing.T) {
	dir := t.TempDir()
	spec := harness.MOTDApp()
	in := func(kv ...any) server.Request { return server.Request{Input: value.Map(kv...)} }

	col1, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newLoopback(t, col1)
	driveHTTP(t, ts1, []server.Request{
		in("op", "set", "scope", "always", "msg", "pre-restart"),
		in("op", "get", "day", "mon"), // epoch 1 seals
		in("op", "get", "day", "tue"),
	})
	if err := col1.Close(); err != nil { // seals epoch 2
		t.Fatal(err)
	}

	// Restart: the "pre-restart" write lives only in epochs 1–2's history;
	// the rebuilt server answers from default state.
	col2, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newLoopback(t, col2)
	driveHTTP(t, ts2, []server.Request{
		in("op", "get", "day", "mon"),
		in("op", "get", "day", "tue"), // epoch 3 seals
	})
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}

	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 3 || !sealed[2].Fresh {
		t.Fatalf("sealed %d epochs (fresh flags %v %v %v), want 3 with epoch 3 fresh",
			len(sealed), sealed[0].Fresh, sealed[1].Fresh, sealed[2].Fresh)
	}
	aud, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("audit across the restart rejected: %v", err)
	}
	if n != 3 {
		t.Fatalf("accepted %d epochs, want 3", n)
	}
}

// TestManyEpochsSmallWindow: a backlog much larger than the prefetch
// window still audits completely and in order — the window bounds memory,
// not coverage.
func TestManyEpochsSmallWindow(t *testing.T) {
	dir := t.TempDir()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(harness.MOTDApp(), 9, 3))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	aud, err := New(Config{Dir: dir, Workers: 1}) // look-ahead window of 2
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if n != 9 {
		t.Fatalf("accepted %d epochs, want 9", n)
	}
	if got := aud.Status().LastAccepted; got != 9 {
		t.Fatalf("LastAccepted = %d, want 9", got)
	}
}

// TestCheckpointResume: an auditor that accepted epochs, then died, resumes
// from its checkpoint — auditing only epochs sealed since, and accepting
// them even when they read state written before the restart.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "checkpoint.json")
	spec := harness.WikiApp()
	reqs := requestsFor(spec, 60, 9)

	col, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, reqs[:30])

	aud1, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud1.RunOnce(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("first auditor accepted %d (err %v), want 2", n, err)
	}

	// Serve more epochs, then "restart": a fresh auditor from the
	// checkpoint must audit only the new epochs.
	driveHTTP(t, ts, reqs[30:])
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	aud2, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	if got := aud2.Status().LastAccepted; got != 2 {
		t.Fatalf("restarted auditor resumes at epoch %d, want 2", got)
	}
	n, err = aud2.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("post-restart audit rejected: %v", err)
	}
	if want := len(sealed) - 2; n != want {
		t.Fatalf("restarted auditor audited %d epochs, want %d", n, want)
	}
	if aud2.Status().LastAccepted != sealed[len(sealed)-1].Seq {
		t.Fatalf("restarted auditor stopped at %d of %d", aud2.Status().LastAccepted, sealed[len(sealed)-1].Seq)
	}

	// A third auditor finds nothing pending: accepted epochs are never
	// re-audited.
	aud3, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := aud3.RunOnce(context.Background()); err != nil || n != 0 {
		t.Fatalf("third auditor re-audited %d epochs (err %v)", n, err)
	}
}

// TestPrefetchByteBound: with MaxPrefetchBytes squeezed below a single
// epoch's size, the window degenerates to one epoch in flight (the floor —
// an oversized epoch must stall the window, not wedge it), every epoch
// still audits, and the peak gauges record the boundedness.
func TestPrefetchByteBound(t *testing.T) {
	dir := t.TempDir()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(harness.MOTDApp(), 6, 5))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	aud, err := New(Config{Dir: dir, Workers: 4, MaxPrefetchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil || n != 6 {
		t.Fatalf("audited %d epochs (err %v), want 6", n, err)
	}
	st := aud.Status()
	if st.PeakPrefetchEpochs != 1 {
		t.Fatalf("peak prefetch epochs = %d, want 1 (byte bound must floor the window)", st.PeakPrefetchEpochs)
	}
	if st.PeakPrefetchBytes <= 0 {
		t.Fatalf("peak prefetch bytes = %d, want > 0", st.PeakPrefetchBytes)
	}

	// Without the squeeze the same backlog fills the count window.
	aud2, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud2.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := aud2.Status().PeakPrefetchEpochs; p != 4 {
		t.Fatalf("peak prefetch epochs = %d, want 4 (2×Workers)", p)
	}
}

// TestReadCheckpointProgress: the advisory lag probe reads the checkpoint
// another auditor wrote; absence or corruption reads as unknown.
func TestReadCheckpointProgress(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "checkpoint.json")
	if _, ok := ReadCheckpointProgress(nil, cpPath); ok {
		t.Fatal("missing checkpoint reported progress")
	}

	dir := t.TempDir()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(harness.MOTDApp(), 3, 7))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	aud, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := ReadCheckpointProgress(nil, cpPath)
	if !ok || got != aud.Status().LastProcessed {
		t.Fatalf("progress = %d, %v; want %d, true", got, ok, aud.Status().LastProcessed)
	}

	if err := os.WriteFile(cpPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok = ReadCheckpointProgress(nil, cpPath)
	if !ok || got != 0 {
		t.Fatalf("corrupt checkpoint = %d, %v; want 0, true (auditor restarts from zero — real lag, not absence)", got, ok)
	}
}

// TestProbeCheckpointProgress: regression for the missing-vs-corrupt
// conflation. A missing checkpoint means no auditor is attached (no lag
// signal; admission window stays open); a corrupt one means the auditor
// will quarantine it and restart from zero (progress zero is *known*, and
// the window must tighten against the whole sealed prefix). The old probe
// reported both as "unknown", releasing backpressure exactly when a torn
// checkpoint had made the backlog largest.
func TestProbeCheckpointProgress(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "checkpoint.json")

	if last, probe := ProbeCheckpointProgress(nil, cpPath); probe != CheckpointMissing || last != 0 {
		t.Fatalf("missing file: probe = %d, %v; want 0, CheckpointMissing", last, probe)
	}
	if _, ok := ReadCheckpointProgress(nil, cpPath); ok {
		t.Fatal("missing checkpoint must read as no-signal (ok=false)")
	}

	if err := os.WriteFile(cpPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if last, probe := ProbeCheckpointProgress(nil, cpPath); probe != CheckpointCorrupt || last != 0 {
		t.Fatalf("torn file: probe = %d, %v; want 0, CheckpointCorrupt", last, probe)
	}
	if last, ok := ReadCheckpointProgress(nil, cpPath); !ok || last != 0 {
		t.Fatalf("torn file: progress = %d, %v; want 0, true", last, ok)
	}

	if err := os.WriteFile(cpPath, []byte(`{"lastAccepted":3,"lastProcessed":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if last, probe := ProbeCheckpointProgress(nil, cpPath); probe != CheckpointOK || last != 5 {
		t.Fatalf("good file: probe = %d, %v; want 5, CheckpointOK", last, probe)
	}

	// An unreadable-but-present checkpoint (read fault injected via
	// iofault) is corrupt, not missing: the auditor cannot resume from it.
	inj := iofault.NewInjector(iofault.OS)
	if err := inj.Arm(iofault.OpTransientEIO, iofault.ArmConfig{Times: -1, PathContains: "checkpoint.json"}); err != nil {
		t.Fatal(err)
	}
	if last, probe := ProbeCheckpointProgress(inj, cpPath); probe != CheckpointCorrupt || last != 0 {
		t.Fatalf("read-faulted file: probe = %d, %v; want 0, CheckpointCorrupt", last, probe)
	}
}
