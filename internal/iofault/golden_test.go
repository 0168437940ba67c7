package iofault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fireSequence issues n calls through an injector armed from spec and
// returns the 0-based indices of the calls the schedule faulted.
func fireSequence(t *testing.T, spec string, n int, call func(in *Injector, p string) error) []int {
	t.Helper()
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil)
	if err := in.ArmSpec(spec, ""); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 0; i < n; i++ {
		var fe *FaultError
		if err := call(in, p); errors.As(err, &fe) {
			fired = append(fired, i)
		}
	}
	return fired
}

// TestGoldenFireSequence pins the exact calls each seed faults, so a
// changed draw order or skip rule shows up as a diff — which comparing two
// runs of the same code cannot catch.
func TestGoldenFireSequence(t *testing.T) {
	read := func(in *Injector, p string) error { _, err := in.ReadFile(p); return err }
	rename := func(in *Injector, p string) error { return in.Rename(p, p) }
	cases := []struct {
		spec string
		call func(*Injector, string) error
		want string
	}{
		{"transient-eio:12345:5", read, "[2 4 6 8 11]"},
		{"rename-fail:7:4", rename, "[2 3 4 5]"},
	}
	for _, tc := range cases {
		if got := fmt.Sprint(fireSequence(t, tc.spec, 30, tc.call)); got != tc.want {
			t.Errorf("%s fired on %s, want %s", tc.spec, got, tc.want)
		}
	}
}
