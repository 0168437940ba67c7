package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
)

const (
	memoBytes  = 64 << 20
	followPoll = 20 * time.Millisecond
)

// verdictAt is one graded epoch as OnVerdict saw it: when, how long the
// auditor was busy on it (Status.LastAudit), and its reject code ("" when
// accepted).
type verdictAt struct {
	At, Busy time.Duration
	Code     string
}

// verdictLog collects OnVerdict calls keyed by epoch seq.
type verdictLog struct {
	mu sync.Mutex
	by map[uint64]verdictAt
}

func (l *verdictLog) hook(aud *atomic.Pointer[auditd.Auditor]) func(auditd.Verdict) {
	l.by = map[uint64]verdictAt{}
	return func(v auditd.Verdict) {
		at := now()
		busy := aud.Load().Status().LastAudit
		l.mu.Lock()
		l.by[v.Epoch] = verdictAt{At: at, Busy: busy, Code: string(v.Code)}
		l.mu.Unlock()
	}
}

func (l *verdictLog) snapshot() map[uint64]verdictAt {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint64]verdictAt, len(l.by))
	for k, v := range l.by {
		out[k] = v
	}
	return out
}

// pipeline is one collector behind a loopback HTTP server, optionally with
// an auditor following its epoch log in the same process.
type pipeline struct {
	w    workload
	dir  string
	col  *collectorhttp.Collector
	hs   *http.Server
	url  string
	aud  atomic.Pointer[auditd.Auditor] // nil until built; the collector's lag probe may read it first
	vlog verdictLog
	stop context.CancelFunc
	done chan error
}

// newPipeline builds the app, the collector, and (when follow is set) the
// auditor, and starts serving on a loopback port.
func newPipeline(w workload, dir string, seed int64, tr *tracer, follow bool) (*pipeline, error) {
	p := &pipeline{w: w, dir: dir}
	cfg := collectorhttp.Config{
		Spec:          tracedSpec(w.spec, tr, "apps.serve"),
		Dir:           filepath.Join(dir, "log"),
		EpochRequests: w.epoch,
		Seed:          seed,
		FS:            tracedFS(tr, "collector"),
	}
	if follow {
		cfg.AuditProgress = func() (uint64, bool) {
			aud := p.aud.Load()
			if aud == nil {
				return 0, false
			}
			return aud.Status().LastProcessed, true
		}
	}
	col, err := collectorhttp.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	p.col = col
	if follow {
		ckpt := filepath.Join(dir, "checkpoint")
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			col.Close()
			return nil, err
		}
		aud, err := auditd.New(p.auditConfig(filepath.Join(ckpt, "checkpoint.json"), tr))
		if err != nil {
			col.Close()
			return nil, fmt.Errorf("auditor: %w", err)
		}
		p.aud.Store(aud)
		ctx, stop := context.WithCancel(context.Background())
		p.stop, p.done = stop, make(chan error, 1)
		go func() { p.done <- aud.Run(ctx) }()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.abort()
		return nil, err
	}
	p.hs = &http.Server{Handler: tracedHandler(col.Handler(), tr)}
	go func() { _ = p.hs.Serve(ln) }() // returns ErrServerClosed once finish or abort closes it
	p.url = "http://" + ln.Addr().String() + "/invoke"
	return p, nil
}

func (p *pipeline) auditConfig(checkpoint string, tr *tracer) auditd.Config {
	return auditd.Config{
		Dir:          filepath.Join(p.dir, "log"),
		Spec:         tracedSpec(p.w.spec, tr, "apps.reexec"),
		Checkpoint:   checkpoint,
		AuditWorkers: p.w.auditWorkers,
		MemoMaxBytes: memoBytes,
		Poll:         followPoll,
		FS:           tracedFS(tr, "auditor"),
		OnVerdict:    p.vlog.hook(&p.aud),
	}
}

// abort tears the pipeline down without waiting for audits.
func (p *pipeline) abort() {
	if p.hs != nil {
		p.hs.Close()
	}
	p.col.Close()
	if p.stop != nil {
		p.stop()
		<-p.done
	}
}

// finish stops serving, seals the last partial epoch, and waits until the
// follower has graded every sealed epoch. It returns the sealed manifests.
func (p *pipeline) finish() ([]epochlog.Manifest, error) {
	if err := p.hs.Close(); err != nil {
		return nil, err
	}
	if err := p.col.Close(); err != nil {
		return nil, fmt.Errorf("closing collector: %w", err)
	}
	sealed, err := epochlog.ListSealed(filepath.Join(p.dir, "log"))
	if err != nil {
		return nil, err
	}
	aud := p.aud.Load()
	if aud == nil {
		return sealed, nil
	}
	last := uint64(len(sealed))
	deadline := time.After(120 * time.Second)
	var runErr error
	stopped := false
	for !stopped && aud.Status().LastProcessed < last {
		select {
		case runErr = <-p.done:
			stopped = true
		case <-deadline:
			runErr = errors.New("timed out after 120s")
			stopped = true
			p.stop()
			<-p.done
		case <-time.After(2 * time.Millisecond):
		}
	}
	if !stopped {
		p.stop()
		runErr = <-p.done
	}
	p.stop = nil
	if got := aud.Status().LastProcessed; got < last || runErr != nil {
		return nil, fmt.Errorf("auditor graded %d of %d epochs: %v", got, last, runErr)
	}
	return sealed, nil
}

// pass is one catch-up audit: a fresh auditor's RunOnce over a sealed log.
type pass struct {
	Start, End time.Duration
	Epochs     int
	Stats      verifier.Stats
	Verdicts   map[uint64]verdictAt
}

// catchUp runs one pass over the log in dir with the workload's audit
// configuration: a catch-up auditor starting from zero. checkpoint is its
// resume file; "" keeps the cursor in memory.
func catchUp(w workload, dir string, tr *tracer, checkpoint string) (pass, error) {
	p := &pipeline{w: w, dir: dir}
	cfg := p.auditConfig(checkpoint, tr)
	aud, err := auditd.New(cfg)
	if err != nil {
		return pass{}, err
	}
	p.aud.Store(aud)
	ps := pass{Start: now()}
	n, err := aud.RunOnce(context.Background())
	ps.End = now()
	if err != nil {
		return ps, fmt.Errorf("catch-up audit: %w", err)
	}
	st := aud.Status()
	ps.Epochs, ps.Stats, ps.Verdicts = n, st.Stats, p.vlog.snapshot()
	return ps, nil
}

// sealedLog is what the sealed epochs of a log hold: their manifests and
// which epoch admitted each RID.
type sealedLog struct {
	Manifests []epochlog.Manifest
	EpochOf   map[string]uint64
	Requests  int
}

func readSealed(dir string) (*sealedLog, error) {
	dir = filepath.Join(dir, "log")
	ms, err := epochlog.ListSealed(dir)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, errors.New("no sealed epochs")
	}
	s := &sealedLog{Manifests: ms, EpochOf: map[string]uint64{}}
	for _, m := range ms {
		tr, _, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
		if err != nil {
			return nil, err
		}
		for _, e := range tr.Events {
			if e.Kind == trace.Req {
				s.EpochOf[e.RID] = m.Seq
			}
		}
		s.Requests += m.Requests
	}
	return s, nil
}

func (s *sealedLog) adviceBytes() int {
	n := 0
	for _, m := range s.Manifests {
		n += m.AdviceBytes
	}
	return n
}
