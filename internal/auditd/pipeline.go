package auditd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/verifier"
)

// PipelineOptions configures RunPipeline.
type PipelineOptions struct {
	// Dir is the epoch log directory (required).
	Dir string
	// EpochRequests is the sealing threshold; must be ≥ 1 so epochs seal
	// mid-workload.
	EpochRequests int
	// Mode selects the collected advice and the verifier. Defaults to
	// Karousos.
	Mode advice.Mode
	// Seed seeds the dispatch scheduler.
	Seed int64
	// Limits bounds each epoch's audit.
	Limits verifier.Limits
	// Checkpoint is the auditor's resume file ("" = in-memory).
	Checkpoint string
	// FS threads an injectable filesystem through the collector and
	// auditor; nil means the real OS.
	FS iofault.FS
	// MaxRestarts bounds the audit supervisor's rebuilds per pass; 0 takes
	// its default.
	MaxRestarts int
	// AuditWorkers is each epoch audit's parallelism; see Config.AuditWorkers.
	AuditWorkers int
	// MemoMaxBytes enables the cross-epoch re-execution memo cache; see
	// Config.MemoMaxBytes.
	MemoMaxBytes int
}

// PipelineResult is RunPipeline's summary.
type PipelineResult struct {
	Addr        string    `json:"addr"`
	Served      int       `json:"served"`
	Sealed      int       `json:"sealed"`
	Accepted    int       `json:"accepted"`
	Unauditable int       `json:"unauditable"`
	Restarts    int       `json:"restarts"`
	Status      Status    `json:"status"`
	Verdicts    []Verdict `json:"verdicts"`
}

// RunPipeline is the end-to-end continuous-audit exercise: it boots the
// HTTP collector on a loopback listener, starts the auditor following the
// epoch log, drives the workload as real HTTP requests — epochs sealing and
// auditing while serving continues — then closes the collector (sealing the
// final partial epoch) and waits for the auditor to drain. It returns once
// every sealed epoch has been audited, or with the first rejection.
func RunPipeline(ctx context.Context, spec harness.AppSpec, reqs []server.Request, opts PipelineOptions) (*PipelineResult, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("auditd: pipeline needs a directory")
	}
	if opts.EpochRequests < 1 {
		opts.EpochRequests = 50
	}
	// The collector polls the supervisor's audit progress for lag-based
	// backpressure; the supervisor is built after the collector, so the
	// probe reads an atomic pointer and reports "unknown" until it lands.
	var supPtr atomic.Pointer[Supervisor]
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          spec,
		Dir:           opts.Dir,
		Mode:          opts.Mode,
		EpochRequests: opts.EpochRequests,
		Seed:          opts.Seed,
		Limits:        opts.Limits,
		FS:            opts.FS,
		AuditProgress: func() (uint64, bool) {
			s := supPtr.Load()
			if s == nil {
				return 0, false
			}
			st, _ := s.Status()
			return st.LastProcessed, true
		},
	})
	if err != nil {
		return nil, err
	}
	defer col.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: col.Handler()}
	go func() { hs.Serve(ln) }() //karousos:errladder-ok Serve returns ErrServerClosed on the deferred Close
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	sup := NewSupervisor(Config{
		Dir:          opts.Dir,
		Spec:         spec,
		Mode:         opts.Mode,
		Limits:       opts.Limits,
		Checkpoint:   opts.Checkpoint,
		Poll:         20 * time.Millisecond,
		FS:           opts.FS,
		AuditWorkers: opts.AuditWorkers,
		MemoMaxBytes: opts.MemoMaxBytes,
	}, opts.MaxRestarts)
	supPtr.Store(sup)
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	auditErr := make(chan error, 1)
	go func() { auditErr <- sup.Run(followCtx) }()

	res := &PipelineResult{Addr: base}
	client := &http.Client{Timeout: 30 * time.Second}
	for _, r := range reqs {
		resp, err := collectorhttp.Invoke(client, base, r.Input)
		if err != nil {
			return res, err
		}
		resp.Body.Close() //karousos:errladder-ok best-effort drain of the harness client response; the status code is checked below
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("auditd: pipeline invoke: status %d", resp.StatusCode)
		}
		res.Served++
	}
	if err := col.Close(); err != nil {
		return res, err
	}

	sealed, err := epochlog.ListSealed(opts.Dir)
	if err != nil {
		return res, err
	}
	res.Sealed = len(sealed)
	var lastSeq uint64
	if len(sealed) > 0 {
		lastSeq = sealed[len(sealed)-1].Seq
	}

	// Wait for the follower to drain the log (or fail trying). Draining is
	// measured on LastProcessed: an unauditable tail still counts as graded.
	finish := func() *PipelineResult {
		st, restarts := sup.Status()
		res.Status = st
		res.Restarts = restarts
		res.Verdicts = sup.Verdicts()
		res.Accepted = st.Accepted
		res.Unauditable = st.Unauditable
		return res
	}
	for {
		st, _ := sup.Status()
		if st.LastProcessed >= lastSeq {
			break
		}
		//karousos:nondeterminism-ok harness wait loop; drain progress is re-read from Status on every wakeup
		select {
		case err := <-auditErr:
			finish()
			if err == nil {
				err = fmt.Errorf("auditd: follower exited at epoch %d of %d", res.Status.LastProcessed, lastSeq)
			}
			return res, err
		case <-ctx.Done():
			finish()
			return res, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	stopFollow()
	if err := <-auditErr; err != nil {
		finish()
		return res, err
	}
	finish()
	return res, nil
}
