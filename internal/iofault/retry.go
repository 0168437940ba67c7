package iofault

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"syscall"
	"time"
)

// Class sorts an I/O error into the degradation ladder's rungs (DESIGN.md
// §11): retry it, degrade around it, or halt on it.
type Class int

const (
	// ClassPermanent: retrying the same operation cannot help. The caller
	// must fail the operation and let the layer above decide (supervisor
	// restart, loud error).
	ClassPermanent Class = iota
	// ClassTransient: the identical operation may succeed if re-issued —
	// EIO on a read path, EINTR, EAGAIN, an injected transient fault.
	ClassTransient
	// ClassDegraded: resource exhaustion (ENOSPC, EDQUOT). Retrying is
	// futile until an operator intervenes, but the pipeline can keep its
	// trusted trace flowing and seal epochs flagged degraded.
	ClassDegraded
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassDegraded:
		return "degraded"
	default:
		return "permanent"
	}
}

// Classify maps an error to its ladder rung. An injected *FaultError
// carries its own transience; for real errnos, EIO/EINTR/EAGAIN/timeouts
// are transient and ENOSPC/EDQUOT degrade. Anything else — including nil —
// is permanent: retrying cannot change a nil error, and an unknown failure
// must surface rather than spin.
func Classify(err error) Class {
	if err == nil {
		return ClassPermanent
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		if fe.Transient {
			return ClassTransient
		}
		if errors.Is(fe.Err, syscall.ENOSPC) || errors.Is(fe.Err, syscall.EDQUOT) {
			return ClassDegraded
		}
		return ClassPermanent
	}
	switch {
	case errors.Is(err, syscall.ENOSPC), errors.Is(err, syscall.EDQUOT):
		return ClassDegraded
	case errors.Is(err, syscall.EIO), errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EAGAIN), errors.Is(err, syscall.ETIMEDOUT),
		errors.Is(err, os.ErrDeadlineExceeded):
		return ClassTransient
	}
	return ClassPermanent
}

// Backoff paces every retry and restart loop in the pipeline: disk
// retries (Retry), auditor rebuilds (auditd.Supervisor), the gateway's
// re-sends of provably-unsent requests, and fleet member restarts. The
// delay doubles from Base up to Max, each drawn with jitter from
// [delay/2, delay] so retriers that share a fault do not stampede in
// phase. Sleeping never affects verdicts, so the jitter needs no seed.
type Backoff struct {
	// Base is the first delay (default 2ms).
	Base time.Duration
	// Max caps the delay (default 100ms).
	Max time.Duration
	// Attempts is the total number of tries including the first (default 6).
	Attempts int
	// Sleep replaces time.Sleep in tests; nil uses the real clock.
	Sleep func(time.Duration)
}

// WithDefaults returns the backoff with zero-valued fields filled in.
func (b Backoff) WithDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 2 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 6
	}
	if b.Sleep == nil {
		b.Sleep = time.Sleep
	}
	return b
}

// Delay returns the jittered pause after failed attempt (0-based): Base
// doubled attempt times, capped at Max, drawn from [d/2, d]. Any attempt
// index is safe — the doubling stops at the cap instead of overflowing.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.WithDefaults()
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Wait pauses Delay(attempt), returning early with the context's error if
// it is cancelled first. A Sleep override sleeps unconditionally and then
// reports the context.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if b.Sleep != nil {
		b.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs op, re-issuing it with backoff while the error classifies
// transient. It returns nil on success, the first non-transient error
// immediately, or the last transient error once attempts are exhausted.
// The context is only polled between attempts; a cancelled context returns
// the context's error wrapped around the last I/O error.
func Retry(ctx context.Context, b Backoff, op func() error) error {
	b = b.WithDefaults()
	var err error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if err = op(); err == nil || Classify(err) != ClassTransient {
			return err
		}
		if attempt == b.Attempts-1 {
			break
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return errors.Join(cerr, err)
			}
		}
		b.Sleep(b.Delay(attempt))
	}
	return err
}
