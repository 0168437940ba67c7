package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/workload"
)

// TestPipelineAuditStatusWorkflow exercises the daemon's scriptable
// surface: a pipeline run exits 0, the epoch directory then audits clean
// again offline (the checkpoint advancing), and status reports the log.
func TestPipelineAuditStatusWorkflow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "epochs")
	var out, errb bytes.Buffer
	code := run([]string{"pipeline", "-app", "motd", "-n", "40", "-epoch-requests", "15", "-dir", dir, "-seed", "7"}, &out, &errb)
	if code != 0 {
		t.Fatalf("pipeline exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PIPELINE ACCEPTED") || !strings.Contains(out.String(), "sealed 3 epochs") {
		t.Fatalf("pipeline output: %s", out.String())
	}

	cp := filepath.Join(t.TempDir(), "cp.json")
	out.Reset()
	errb.Reset()
	code = run([]string{"audit", "-dir", dir, "-checkpoint", cp}, &out, &errb)
	if code != 0 {
		t.Fatalf("audit exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "AUDIT ACCEPTED through epoch 3") {
		t.Fatalf("audit output: %s", out.String())
	}

	// Re-auditing against the checkpoint finds nothing pending but still
	// accepts.
	out.Reset()
	code = run([]string{"audit", "-dir", dir, "-checkpoint", cp}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "0 epochs this run") {
		t.Fatalf("re-audit exit %d: %s", code, out.String())
	}

	out.Reset()
	code = run([]string{"status", "-dir", dir, "-checkpoint", cp}, &out, &errb)
	if code != 0 {
		t.Fatalf("status exit %d: %s", code, errb.String())
	}
	var st struct {
		App          string `json:"app"`
		SealedEpochs int    `json:"sealedEpochs"`
		LastAccepted uint64 `json:"lastAccepted"`
		Pending      int    `json:"pending"`
	}
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatalf("status output not JSON: %v (%s)", err, out.String())
	}
	if st.App != "motd" || st.SealedEpochs != 3 || st.LastAccepted != 3 || st.Pending != 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestAuditRejectsCorruptEpoch: corrupting a sealed advice file makes the
// audit subcommand exit 2 with the bare reason code on stdout.
func TestAuditRejectsCorruptEpoch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "epochs")
	var out, errb bytes.Buffer
	if code := run([]string{"pipeline", "-app", "motd", "-n", "30", "-epoch-requests", "10", "-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("pipeline exit %d: %s", code, errb.String())
	}
	path := filepath.Join(dir, "ep000002.advice")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] ^= 0x5a
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errb.Reset()
	code := run([]string{"audit", "-dir", dir, "-reason-code"}, &out, &errb)
	if code != 2 {
		t.Fatalf("audit of corrupt epoch exit %d: %s / %s", code, out.String(), errb.String())
	}
	if strings.TrimSpace(out.String()) != "MalformedAdvice" {
		t.Fatalf("reason code output %q, want MalformedAdvice", out.String())
	}
	if !strings.Contains(errb.String(), "epoch 2") {
		t.Fatalf("rejection did not name the epoch: %s", errb.String())
	}
}

// TestChaosCmd: the built-in acceptance scenario passes (exit 0) and its
// verdict summary is printed; a scripted scenario file is accepted too.
func TestChaosCmd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"chaos", "-app", "motd", "-seed", "11", "-dir", filepath.Join(t.TempDir(), "chaos")}, &out, &errb)
	if code != 0 {
		t.Fatalf("chaos exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "CHAOS OK") || !strings.Contains(out.String(), "unauditable=1") {
		t.Fatalf("chaos output: %s", out.String())
	}

	// A scripted scenario from a JSON file: honest run, no faults.
	sc := filepath.Join(t.TempDir(), "sc.json")
	blob := `{"app":"motd","seed":3,"requests":20,"epochRequests":10}`
	if err := os.WriteFile(sc, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	code = run([]string{"chaos", "-scenario", sc, "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("scripted chaos exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `"rejected": 0`) || !strings.Contains(out.String(), "unauditable=0") {
		t.Fatalf("scripted chaos output: %s", out.String())
	}
}

// TestShardedAuditCmd: a topology driven through the gateway audits
// clean via -shards, the checkpoint directory makes a re-audit a no-op
// that still accepts, and a wrong -shards pin is an error.
func TestShardedAuditCmd(t *testing.T) {
	root := filepath.Join(t.TempDir(), "shards")
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root,
		Map:           shard.Map{Shards: 2, KeyFields: harness.WikiApp().KeyFields},
		EpochRequests: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()
	for _, r := range workload.Wiki(30, 9) {
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	cpDir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"audit", "-shards", "2", "-dir", root, "-checkpoint", cpDir}, &out, &errb)
	if code != 0 {
		t.Fatalf("sharded audit exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "SHARDED AUDIT ACCEPTED: 2 shards") {
		t.Fatalf("sharded audit output: %s", out.String())
	}

	// Per-shard checkpoints advanced: the re-audit grades nothing new but
	// still accepts the topology.
	out.Reset()
	if code := run([]string{"audit", "-shards", "2", "-dir", root, "-checkpoint", cpDir, "-lanes", "1"}, &out, &errb); code != 0 {
		t.Fatalf("sharded re-audit exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "SHARDED AUDIT ACCEPTED") {
		t.Fatalf("sharded re-audit output: %s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"audit", "-shards", "3", "-dir", root}, &out, &errb); code != 1 {
		t.Fatalf("wrong -shards pin exit %d: %s", code, errb.String())
	}
}

// TestShardChaosCmd: the sharded acceptance scenario passes end to end
// through the CLI.
func TestShardChaosCmd(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"chaos", "-shards", "2", "-seed", "17", "-dir", filepath.Join(t.TempDir(), "sc")}, &out, &errb)
	if code != 0 {
		t.Fatalf("shard chaos exit %d: %s / %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "SHARD CHAOS OK") || !strings.Contains(out.String(), "rejected=0") {
		t.Fatalf("shard chaos output: %s", out.String())
	}
}

// TestBadArgs: unknown subcommands and apps are infrastructure errors.
func TestBadArgs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code != 1 {
		t.Fatalf("unknown subcommand exit %d", code)
	}
	if code := run([]string{"pipeline", "-app", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown app exit %d", code)
	}
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("no args exit %d", code)
	}
}
