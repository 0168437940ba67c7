package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/faultinject"
)

// frameHeader is the epoch log's per-record header (length and CRC). A cut
// inside it leaves no advice at all, a different fault from a torn blob.
const frameHeader = 8

// tamper copies the start of the sealed log, truncates one epoch's advice
// with the faultinject truncate operator, and requires a fresh auditor to
// accept every earlier epoch and reject that one as MalformedAdvice.
func (r *runner) tamper(s *served) error {
	src := filepath.Join(s.dir, "log")
	dst := filepath.Join(r.newDir(), "log")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	target := uint64(2)
	if len(s.log.Manifests) < 2 {
		target = 1
	}
	// The copy holds the epochs up to the target: the auditor grades the
	// contiguous sealed prefix, so later epochs would only cost time.
	names := []string{collectorhttp.MetaFile}
	for seq := uint64(1); seq <= target; seq++ {
		for _, ext := range []string{"trace", "advice", "manifest"} {
			names = append(names, fmt.Sprintf("ep%06d.%s", seq, ext))
		}
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			return err
		}
	}
	path := filepath.Join(dst, fmt.Sprintf("ep%06d.advice", target))
	wire, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	op, _ := faultinject.Lookup("truncate")
	var cut []byte
	for seed := int64(1); len(cut) <= frameHeader; seed++ {
		if cut, err = op.Apply(seed, wire); err != nil {
			return err
		}
		if seed > 1000 {
			return fmt.Errorf("advice of epoch %d too short to truncate (%d bytes)", target, len(wire))
		}
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		return err
	}
	aud, err := auditd.New(auditd.Config{Dir: dst, Spec: r.w.spec, AuditWorkers: r.w.auditWorkers, MemoMaxBytes: memoBytes})
	if err != nil {
		return err
	}
	n, err := aud.RunOnce(context.Background())
	var rej *auditd.Reject
	switch {
	case err == nil:
		r.gatef("epoch %d with truncated advice was accepted", target)
	case !errors.As(err, &rej):
		r.gatef("truncated advice gave a non-reject error: %v", err)
	case rej.Epoch != target || rej.Code != core.RejectMalformedAdvice || n != int(target-1):
		r.gatef("truncated advice of epoch %d: got %s at epoch %d after %d accepts, want %s",
			target, rej.Code, rej.Epoch, n, core.RejectMalformedAdvice)
	}
	return nil
}
