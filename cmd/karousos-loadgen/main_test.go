package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
)

// TestSelfContainedBurstWithAudit is the CLI's acceptance loop: boot a
// collector, offer a burst past a tight admission window, then re-audit
// the sealed log at both worker counts.
func TestSelfContainedBurstWithAudit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-app", "motd", "-n", "64", "-seed", "9",
		"-epoch-requests", "16", "-max-inflight", "4", "-outstanding", "16",
		"-dir", t.TempDir(), "-audit",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"offered 64", "AUDIT ACCEPTED", "LOADGEN OK"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestJSONOutput checks the machine-readable path parses and balances.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "wiki", "-n", "8", "-dir", t.TempDir(), "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"offered": 8`) {
		t.Fatalf("json output missing offered count:\n%s", stdout.String())
	}
}

// TestTargetGatewayMode drives a local sharded topology through its
// gateway with -target: the run accepts, and the JSON ledger is split per
// shard with every shard of the topology represented.
func TestTargetGatewayMode(t *testing.T) {
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec:          harness.WikiApp(),
		Root:          t.TempDir(),
		Map:           shard.Map{Shards: 2, KeyFields: harness.WikiApp().KeyFields},
		EpochRequests: 10,
		Seed:          7,
		Limits:        verifier.DefaultLimits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-target", ts.URL, "-app", "wiki", "-n", "30", "-seed", "7", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var res loadgen.Result
	// The ledger JSON is followed by the OK banner; decode the first value.
	if err := json.NewDecoder(bytes.NewReader(stdout.Bytes())).Decode(&res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, stdout.String())
	}
	if res.OK != 30 {
		t.Fatalf("ok = %d, want 30: %+v", res.OK, res)
	}
	if len(res.Shards) != 2 || res.Shards["0"] == nil || res.Shards["1"] == nil {
		t.Fatalf("per-shard ledger missing shards: %+v", res.Shards)
	}
	if got := res.Shards["0"].OK + res.Shards["1"].OK; got != 30 {
		t.Fatalf("shard ledgers sum to %d, want 30", got)
	}
}

// TestBadFlagsFail covers the refusal paths: unknown mix, -audit against
// an external URL, and the -target exclusivity rules.
func TestBadFlagsFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown mix: exit %d", code)
	}
	if code := run([]string{"-url", "http://127.0.0.1:1", "-audit"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-audit with -url: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "-audit") {
		t.Fatalf("stderr should explain the -audit restriction: %s", stderr.String())
	}
	if code := run([]string{"-target", "http://127.0.0.1:1", "-url", "http://127.0.0.1:2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-target with -url: exit %d", code)
	}
	if code := run([]string{"-target", "http://127.0.0.1:1", "-audit"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-target with -audit: exit %d", code)
	}
}

// TestRepeatMixFlag: the steady-state recurring workload serves, seals, and
// re-audits clean; an out-of-range fraction is refused up front.
func TestRepeatMixFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-app", "motd", "-n", "32", "-seed", "3", "-repeat-mix", "0.8",
		"-epoch-requests", "8", "-dir", t.TempDir(), "-audit",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "AUDIT ACCEPTED") {
		t.Fatalf("stdout missing audit acceptance:\n%s", stdout.String())
	}
	if code := run([]string{"-repeat-mix", "1.5", "-n", "4", "-dir", t.TempDir()}, &stdout, &stderr); code != 1 {
		t.Fatalf("repeat-mix 1.5: exit %d, want 1", code)
	}
}
