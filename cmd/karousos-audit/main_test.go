// End-to-end CLI tests, in-process via run(): the serve → verify loop must
// exit 0, corrupted advice must exit 2 with a printed reason code, and a
// tampered trace must exit 2 with OutputMismatch — the contract monitoring
// wrappers script against.
package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"karousos.dev/karousos"
	"karousos.dev/karousos/internal/core"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func serveSmall(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	code, _, stderr := runCLI(t, "serve", "-app", "stacks", "-n", "15", "-conc", "4", "-out", dir)
	if code != 0 {
		t.Fatalf("serve exited %d: %s", code, stderr)
	}
	return dir
}

func TestVerifyHonestRunExitsZero(t *testing.T) {
	dir := serveSmall(t)
	code, stdout, stderr := runCLI(t, "verify", "-dir", dir)
	if code != 0 {
		t.Fatalf("verify exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "AUDIT ACCEPTED") {
		t.Errorf("missing acceptance banner: %q", stdout)
	}
}

func TestVerifyFaultinjectedAdviceExitsTwo(t *testing.T) {
	dir := serveSmall(t)
	for _, spec := range []string{"truncate:3", "bit-flip:5", "opcount-inflate:1", "drop-log-entry:2"} {
		code, stdout, stderr := runCLI(t, "verify", "-dir", dir, "-faultinject", spec, "-reason-code")
		if code != 2 {
			t.Fatalf("%s: verify exited %d, want 2: %s%s", spec, code, stdout, stderr)
		}
		reason := strings.TrimSpace(stdout)
		if reason == "" {
			t.Fatalf("%s: no reason code printed", spec)
		}
		if !strings.Contains(stderr, "AUDIT REJECTED ["+reason+"]") {
			t.Errorf("%s: banner does not carry code %q: %q", spec, reason, stderr)
		}
	}
}

func TestFaultinjectSubcommandThenVerify(t *testing.T) {
	dir := serveSmall(t)
	mut := filepath.Join(t.TempDir(), "advice-mut.bin")
	code, stdout, stderr := runCLI(t, "faultinject", "-dir", dir, "-op", "length-inflate:9", "-out", mut)
	if code != 0 {
		t.Fatalf("faultinject exited %d: %s%s", code, stdout, stderr)
	}
	// In-place corruption: default -out overwrites the run's advice.
	code, _, stderr = runCLI(t, "faultinject", "-dir", dir, "-op", "splice:4")
	if code != 0 {
		t.Fatalf("in-place faultinject exited %d: %s", code, stderr)
	}
	code, _, stderr = runCLI(t, "verify", "-dir", dir)
	if code != 2 {
		t.Fatalf("verify of corrupted run exited %d, want 2: %s", code, stderr)
	}
}

func TestTamperedTraceRejectsWithOutputMismatch(t *testing.T) {
	dir := serveSmall(t)
	if code, _, stderr := runCLI(t, "tamper", "-dir", dir); code != 0 {
		t.Fatalf("tamper exited %d: %s", code, stderr)
	}
	code, stdout, _ := runCLI(t, "verify", "-dir", dir, "-reason-code")
	if code != 2 {
		t.Fatalf("verify exited %d, want 2", code)
	}
	if got := strings.TrimSpace(stdout); got != "OutputMismatch" {
		t.Errorf("reason code %q, want OutputMismatch", got)
	}
}

// TestUsageNamesEveryRejectCode: the usage text's reason-code list is
// what a monitoring wrapper scripts against, so it must name every code
// an audit can return.
func TestUsageNamesEveryRejectCode(t *testing.T) {
	_, _, stderr := runCLI(t)
	for _, c := range core.AllRejectCodes() {
		if !strings.Contains(stderr, " "+string(c)) {
			t.Errorf("usage omits reason code %s", c)
		}
	}
}

// TestServeFeeds: every bundled app serves and audits through the CLI.
func TestServeFeeds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feeds")
	if code, _, stderr := runCLI(t, "serve", "-app", "feeds", "-n", "15", "-conc", "4", "-out", dir); code != 0 {
		t.Fatalf("serve -app feeds exited %d: %s", code, stderr)
	}
	if code, stdout, stderr := runCLI(t, "verify", "-dir", dir); code != 0 {
		t.Fatalf("verify feeds run exited %d: %s / %s", code, stdout, stderr)
	}
}

func TestInternalErrorsExitOne(t *testing.T) {
	if code, _, _ := runCLI(t, "verify", "-dir", filepath.Join(t.TempDir(), "nonexistent")); code != 1 {
		t.Errorf("missing run dir exited %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "no-such-subcommand"); code != 1 {
		t.Errorf("unknown subcommand exited %d, want 1", code)
	}
	dir := serveSmall(t)
	if code, _, _ := runCLI(t, "verify", "-dir", dir, "-faultinject", "no-such-op:1"); code != 1 {
		t.Errorf("unknown operator exited %d, want 1", code)
	}
}

func TestFaultinjectList(t *testing.T) {
	code, stdout, _ := runCLI(t, "faultinject", "-list")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	for _, name := range []string{"truncate", "bit-flip", "opcount-inflate", "cycle-write-order"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("catalogue listing missing %s", name)
		}
	}
}

// TestVerifyEpochDir: verify -epochs audits a karousos-auditd epoch log
// offline, accepting an honest log and rejecting one whose sealed advice
// was corrupted on disk.
func TestVerifyEpochDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "epochs")
	spec := karousos.StacksApp()
	if _, err := karousos.RunPipeline(context.Background(), spec,
		karousos.StacksWorkload(30, karousos.Mixed, 5),
		karousos.PipelineOptions{Dir: dir, EpochRequests: 10}); err != nil {
		t.Fatalf("pipeline: %v", err)
	}

	code, stdout, stderr := runCLI(t, "verify", "-epochs", dir)
	if code != 0 {
		t.Fatalf("verify -epochs exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "3 epochs through epoch 3") {
		t.Fatalf("verify output: %s", stdout)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "ep000001.advice"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] ^= 0xff
	}
	if err := os.WriteFile(filepath.Join(dir, "ep000001.advice"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runCLI(t, "verify", "-epochs", dir, "-reason-code")
	if code != 2 {
		t.Fatalf("verify of corrupted epoch exited %d: %s", code, stderr)
	}
	if strings.TrimSpace(stdout) != "MalformedAdvice" {
		t.Fatalf("reason code %q, want MalformedAdvice", stdout)
	}
}
