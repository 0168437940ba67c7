package auditd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/verifier"
)

// Supervisor runs an audit loop and rebuilds it when it dies for a reason
// that is the auditor's — not the server's — fault. It is the pipeline's
// one recovery path: RunPipeline follows through it, every Sharded lane
// wraps one, and the chaos runner drives one step by step.
//
// The restart decision is the trust boundary in miniature. A coded
// rejection other than InternalFault is the audit's verdict on the server:
// restarting cannot change it and must not, so the supervisor halts on it
// for good. An InternalFault (the verifier crashed on some input) or a
// plain infrastructure error (epoch unreadable past the retry budget) says
// nothing about the server; the supervisor retires the incarnation — its
// in-memory state may be poisoned — and rebuilds it from the durable
// checkpoint. Crash consistency makes the rebuild sound: the checkpoint is
// written atomically after each graded epoch, so an incarnation that died
// mid-epoch re-grades exactly that epoch, and the determinism invariant
// (same evidence, same verdict) makes the re-grade converge.
type Supervisor struct {
	cfg         Config
	maxRestarts int

	mu       sync.Mutex
	aud      *Auditor // live incarnation; nil between incarnations
	last     Status   // last retired incarnation's counters
	stats    verifier.Stats
	restarts int
	halted   *Reject
	verdicts []Verdict
}

// NewSupervisor wraps cfg in a supervisor that rebuilds the auditor at
// most maxRestarts times per Step (<=0 means 3), pausing
// cfg.Backoff.Delay(i) before rebuild i. Incarnations are built lazily, so
// every one is constructed the same way.
func NewSupervisor(cfg Config, maxRestarts int) *Supervisor {
	if maxRestarts <= 0 {
		maxRestarts = 3
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	s := &Supervisor{maxRestarts: maxRestarts}
	onVerdict := cfg.OnVerdict
	cfg.OnVerdict = func(v Verdict) {
		s.mu.Lock()
		s.verdicts = append(s.verdicts, v)
		s.mu.Unlock()
		if onVerdict != nil {
			onVerdict(v)
		}
	}
	s.cfg = cfg
	return s
}

// Step runs one RunOnce pass over every sealed epoch past the checkpoint
// and returns how many it graded. A coded rejection other than
// InternalFault halts the supervisor (see Halted) and is not an error;
// once halted, Step does nothing. An InternalFault or infrastructure error
// rebuilds the incarnation and retries, at most maxRestarts times in one
// pass before the error is returned. A cancelled context returns its
// error without a rebuild. Step must not run concurrently with itself or
// Crash.
func (s *Supervisor) Step(ctx context.Context) (int, error) {
	if s.Halted() != nil {
		return 0, nil
	}
	processed := 0
	for attempt := 0; ; attempt++ {
		aud, err := s.incarnation()
		if err != nil {
			// Building an auditor needs only the trusted sidecar and the
			// checkpoint: failure is infrastructure, and retrying within
			// the same pass cannot help.
			return processed, err
		}
		n, err := aud.RunOnce(ctx)
		processed += n
		if err == nil {
			return processed, nil
		}
		if ctx.Err() != nil {
			return processed, err
		}
		var rej *Reject
		if errors.As(err, &rej) && rej.Code != core.RejectInternalFault {
			s.halt(rej, false)
			return processed, nil
		}
		s.mu.Lock()
		s.retireLocked()
		s.mu.Unlock()
		if attempt >= s.maxRestarts {
			return processed, fmt.Errorf("restart budget (%d) exhausted: %w", s.maxRestarts, err)
		}
		if err := s.cfg.Backoff.Wait(ctx, attempt); err != nil {
			return processed, err
		}
	}
}

// Run follows the log, polling Step, until the context is cancelled (nil),
// the audit rejects an epoch (the *Reject), or a pass exhausts its
// restart budget (that error).
func (s *Supervisor) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Poll)
	defer ticker.Stop()
	for {
		if _, err := s.Step(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if rej := s.Halted(); rej != nil {
			return rej
		}
		//karousos:nondeterminism-ok poll-loop plumbing; epochs are audited strictly in sequence regardless of which wakeup fires
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// Crash discards the live incarnation as a process kill would — its
// in-memory carry dies with it — and counts a restart; the next Step
// rebuilds from the durable checkpoint.
func (s *Supervisor) Crash() {
	s.mu.Lock()
	s.retireLocked()
	s.mu.Unlock()
}

// Halted returns the rejection that stopped grading, or nil.
func (s *Supervisor) Halted() *Reject {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.halted
}

// Status reports the live incarnation's counters (or the last retired
// one's, between incarnations) with Stats summed over every incarnation,
// plus the restart count.
func (s *Supervisor) Status() (Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(), s.restarts
}

func (s *Supervisor) statusLocked() Status {
	st := s.last
	if s.aud != nil {
		st = s.aud.Status()
	}
	st.Stats.Add(s.stats)
	return st
}

// Verdicts returns every verdict reached across all incarnations, in
// grading order. An epoch whose checkpoint died with its incarnation is
// re-graded by the next one and appears again, with the same code.
func (s *Supervisor) Verdicts() []Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Verdict(nil), s.verdicts...)
}

// incarnation returns the live auditor, building one from the checkpoint
// if none is.
func (s *Supervisor) incarnation() (*Auditor, error) {
	s.mu.Lock()
	aud := s.aud
	s.mu.Unlock()
	if aud != nil {
		return aud, nil
	}
	aud, err := New(s.cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.aud = aud
	s.mu.Unlock()
	return aud, nil
}

func (s *Supervisor) retireLocked() {
	if s.aud != nil {
		st := s.aud.Status()
		s.stats.Add(st.Stats)
		s.last = st
		s.aud = nil
	}
	s.restarts++
}

// halt stops grading for good. A rejection the auditor reached is already
// among the verdicts; one found outside it — a lane's routing check — is
// recorded here.
func (s *Supervisor) halt(rej *Reject, record bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted != nil {
		return
	}
	s.halted = rej
	if record {
		s.verdicts = append(s.verdicts, Verdict{Epoch: rej.Epoch, Code: rej.Code, Reason: rej.Reason})
	}
}
