package iofault

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestPassthroughAndCounts: an injector with no armed operators behaves
// like the OS and counts every call.
func TestPassthroughAndCounts(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	p := filepath.Join(dir, "a")
	if err := in.WriteFile(p, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := in.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := in.Rename(p, p+"2"); err != nil {
		t.Fatal(err)
	}
	if err := in.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	c := in.Counts()
	for _, call := range []Call{CallWrite, CallRead, CallRename, CallSyncDir} {
		if c[call] != 1 {
			t.Errorf("count[%s] = %d, want 1", call, c[call])
		}
	}
}

// TestTransientEIOFiresThenHeals: a Times-bounded transient operator fails
// exactly that many matching calls and then lets the retried call through.
func TestTransientEIOFiresThenHeals(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, ArmConfig{Times: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := in.ReadFile(p)
		if Classify(err) != ClassTransient {
			t.Fatalf("read %d: err %v classifies %v, want transient", i, err, Classify(err))
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("read %d: %v does not unwrap to EIO", i, err)
		}
	}
	if _, err := in.ReadFile(p); err != nil {
		t.Fatalf("read after schedule consumed: %v", err)
	}
	if in.Fired()[OpTransientEIO] != 2 {
		t.Fatalf("fired = %v, want transient-eio:2", in.Fired())
	}
}

// TestDeterministicSchedule: two injectors armed from the same spec fire
// on the same call indices.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		dir := t.TempDir()
		p := filepath.Join(dir, "a")
		os.WriteFile(p, []byte("x"), 0o644)
		in := NewInjector(nil)
		if err := in.ArmSpec("transient-eio:12345:5", ""); err != nil {
			t.Fatal(err)
		}
		var fires []bool
		for i := 0; i < 30; i++ {
			_, err := in.ReadFile(p)
			fires = append(fires, err != nil)
		}
		return fires
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d: %v vs %v", i, a, b)
		}
	}
}

// TestShortWriteLandsPrefix: the short-write operator tears the buffer —
// a prefix reaches the file, the call errors transient.
func TestShortWriteLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	in := NewInjector(nil)
	if err := in.Arm(OpShortWrite, ArmConfig{Times: 1, After: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := in.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	n, err := f.Write([]byte("bbbb"))
	if err == nil || Classify(err) != ClassTransient {
		t.Fatalf("second write: n=%d err=%v, want transient fault", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(p)
	if string(got) != "aaaa"+"bb" {
		t.Fatalf("file = %q, want torn prefix aaaabb", got)
	}
}

// TestENOSPCClassifiesDegraded: disk-full faults are not retryable; they
// degrade.
func TestENOSPCClassifiesDegraded(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	if err := in.Arm(OpENOSPC, ArmConfig{Times: -1, PathContains: ".advice"}); err != nil {
		t.Fatal(err)
	}
	err := in.WriteFile(filepath.Join(dir, "ep1.advice"), []byte("x"), 0o644)
	if Classify(err) != ClassDegraded {
		t.Fatalf("advice write err %v classifies %v, want degraded", err, Classify(err))
	}
	// The path filter protects the trusted channel.
	if err := in.WriteFile(filepath.Join(dir, "ep1.trace"), []byte("x"), 0o644); err != nil {
		t.Fatalf("trace write should pass the .advice filter: %v", err)
	}
	in.Heal()
	if err := in.WriteFile(filepath.Join(dir, "ep2.advice"), []byte("x"), 0o644); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
	if in.Fired()[OpENOSPC] != 1 {
		t.Fatalf("fired = %v, want enospc:1 surviving Heal", in.Fired())
	}
}

// TestRetryAbsorbsTransients: Retry re-issues through a transient schedule
// and succeeds without surfacing the fault.
func TestRetryAbsorbsTransients(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	os.WriteFile(p, []byte("x"), 0o644)
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, ArmConfig{Times: 3}); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	b := Backoff{Base: time.Millisecond, Attempts: 5, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	err := Retry(context.Background(), b, func() error {
		_, err := in.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
}

// TestRetryStopsOnPermanent: non-transient errors return immediately.
func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Backoff{Sleep: func(time.Duration) {}}, func() error {
		calls++
		return os.ErrPermission
	})
	if !errors.Is(err, os.ErrPermission) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want ErrPermission after 1 call", err, calls)
	}
}

// TestRetryExhaustsAttempts: a fault outlasting the budget surfaces as the
// last transient error.
func TestRetryExhaustsAttempts(t *testing.T) {
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, ArmConfig{Times: -1}); err != nil {
		t.Fatal(err)
	}
	err := Retry(context.Background(), Backoff{Attempts: 3, Sleep: func(time.Duration) {}}, func() error {
		_, err := in.ReadFile("nowhere")
		return err
	})
	if Classify(err) != ClassTransient {
		t.Fatalf("exhausted retry returned %v, want the transient fault", err)
	}
	if in.Fired()[OpTransientEIO] != 3 {
		t.Fatalf("fired %v, want 3 attempts", in.Fired())
	}
}

// TestParseSpec covers the accepted spec grammar and its failure modes.
func TestParseSpec(t *testing.T) {
	name, cfg, err := ParseSpec(catalogue, "enospc:9:-1")
	if err != nil || name != OpENOSPC || cfg.Seed != 9 || cfg.Times != -1 {
		t.Fatalf("ParseSpec(enospc:9:-1) = %s %+v %v", name, cfg, err)
	}
	if _, _, err := ParseSpec(catalogue, "no-such-op:1"); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, _, err := ParseSpec(catalogue, "enospc:x"); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, _, err := ParseSpec(catalogue, "enospc:1:2:3"); err == nil {
		t.Fatal("over-long spec accepted")
	}
}

// TestFsyncFailNotTransient: failed fsync must not be blindly retried —
// the classification makes Retry surface it at once.
func TestFsyncFailNotTransient(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	if err := in.Arm(OpFsyncFail, ArmConfig{Times: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := in.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	serr := f.Sync()
	if serr == nil || Classify(serr) != ClassPermanent {
		t.Fatalf("injected fsync failure %v classifies %v, want permanent", serr, Classify(serr))
	}
}

// TestBackoffBounds: every delay lies in [Base/2, Max], doubling until the
// cap — including attempt indices deep enough that an uncapped shift would
// sleep for hours (20) or overflow (37 and up).
func TestBackoffBounds(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Attempts: 6}
	for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 20, 37, 40, 64, 1000} {
		d := b.Delay(i)
		if d < 5*time.Millisecond || d > 80*time.Millisecond {
			t.Fatalf("Delay(%d) = %v out of [base/2, max]", i, d)
		}
	}
}

// TestBackoffWaitHonoursContext: a cancelled context cuts the pause short.
func TestBackoffWaitHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := (Backoff{Base: time.Hour, Max: time.Hour}).Wait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Wait ignored the cancelled context")
	}
}
