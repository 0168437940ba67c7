// Package collectorhttp serves an auditable application as a real network
// endpoint and records the audit's ground truth as it serves.
//
// The trust split mirrors the paper's deployment (§2.1): the trace — which
// requests arrived and which responses left — is recorded by the collector
// itself on the trusted path, appended to a durable epoch log before and
// after each invocation. The advice is untrusted: the serving runtime
// produces it, and nothing the advice says can change what the trace
// records. A separate endpoint accepts (re-)uploaded advice blobs for the
// active epoch, so a deployment where the server process is distinct from
// the collector uses the same wire path our in-process pipeline does.
//
// The serving path is built to survive overload (DESIGN.md §14). Admission
// is bounded: past a window of in-flight requests and queued body bytes,
// arrivals are shed immediately with 429 and a jittered Retry-After —
// never queued without bound. Admitted requests ride the epoch log's group
// commit, so concurrent arrivals amortize one fsync instead of paying one
// each, and a request is only ever acknowledged after its evidence is
// durable. When the audit pipeline falls behind, the admission window
// tightens in proportion to the lag: the collector serves at the rate its
// responses can actually be checked.
//
// Epochs seal on a request-count threshold, on age, or on demand; sealing
// drains the server's accumulated advice (rebasing its in-memory state onto
// carry identities, see server.DrainAdvice) and makes the epoch visible to
// the incremental auditor. The seal itself is split so serving never stalls
// behind an fsync: the rotation under the epoch gate is memory-only, and
// the durable half (data fsync, manifest) runs after the gate is released.
package collectorhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
)

// CommitMode selects the trusted channel's durability discipline.
type CommitMode string

const (
	// CommitGroup (the default) makes every append durable before its
	// request is acknowledged, amortizing fsyncs across concurrent
	// arrivals via the epoch log's group commit.
	CommitGroup CommitMode = "group"
	// CommitPerRequest fsyncs every append individually — the naive
	// durable baseline the bench panel compares group commit against.
	CommitPerRequest CommitMode = "per-request"
)

// Config describes one collector instance.
type Config struct {
	// Spec is the application to serve.
	Spec harness.AppSpec
	// Dir is the epoch log directory; created if absent.
	Dir string
	// Mode selects which advice the runtime collects. Defaults to Karousos.
	Mode advice.Mode
	// EpochRequests seals the active epoch once it holds this many
	// requests. 0 disables count-based sealing.
	EpochRequests int
	// EpochMaxAge seals a non-empty active epoch older than this. 0
	// disables age-based sealing.
	EpochMaxAge time.Duration
	// Seed seeds the dispatch loop's scheduler.
	Seed int64
	// Limits clamps the advice size accepted into the log; its
	// MaxAdviceBytes is enforced on upload and again on replay.
	Limits verifier.Limits
	// FS is the filesystem the collector and its epoch log write through.
	// nil means the real OS; tests and chaos scenarios pass an
	// iofault.Injector.
	FS iofault.FS
	// Backoff bounds the retry loops around trusted-channel appends.
	// Zero-valued fields take iofault's defaults.
	Backoff iofault.Backoff

	// Commit selects the trusted channel's durability discipline; ""
	// means CommitGroup.
	Commit CommitMode
	// MaxInflight bounds concurrently admitted /invoke requests; arrivals
	// beyond the window are shed with 429. <=0 means 256.
	MaxInflight int
	// MaxQueuedBytes bounds the summed body bytes of admitted requests.
	// <=0 means 32 MiB.
	MaxQueuedBytes int64
	// MaxRequestBytes bounds one /invoke body (413 past it). <=0 means
	// 1 MiB.
	MaxRequestBytes int64
	// RetryAfter is the base retry hint attached to 429s; the value sent
	// is jittered across [RetryAfter, 2×RetryAfter). <=0 means 1s.
	RetryAfter time.Duration
	// RequestTimeout bounds one admitted request end to end, including
	// its wait in the commit queue. 0 disables the collector-side
	// deadline (the client's context still applies).
	RequestTimeout time.Duration
	// AuditProgress, when set, reports the audit pipeline's progress as
	// the last fully audited epoch seq (ok=false while unknown). The
	// collector polls it and tightens admission when the auditor falls
	// behind the sealed frontier.
	AuditProgress func() (lastAudited uint64, ok bool)
	// MaxAuditLag is how many sealed-but-unaudited epochs the collector
	// tolerates before tightening admission and failing /readyz. <=0
	// means 64 when AuditProgress is set, disabled otherwise.
	MaxAuditLag int
	// AuditMemo, when set, reports the audit pipeline's memo-cache
	// counters (ok=false while unknown or memoization is off); /healthz
	// includes them so warm-cache behavior is observable from the serving
	// side. Advisory only — never feeds admission.
	AuditMemo func() (AuditMemoState, bool)
}

// AuditMemoState is the auditor's cumulative memo-cache traffic as
// surfaced on /healthz.
type AuditMemoState struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions,omitempty"`
}

func (cfg Config) fs() iofault.FS {
	if cfg.FS == nil {
		return iofault.OS
	}
	return cfg.FS
}

func (cfg Config) commitMode() CommitMode {
	if cfg.Commit == "" {
		return CommitGroup
	}
	return cfg.Commit
}

// Meta is the sidecar record written next to the epoch log so offline tools
// (karousos-audit, karousos-auditd) know how to re-execute the epochs.
type Meta struct {
	App  string      `json:"app"`
	Mode advice.Mode `json:"mode"`
}

// MetaFile is the name of the sidecar inside the epoch log directory.
const MetaFile = "meta.json"

// Collector is the HTTP front-end plus its serving runtime and epoch log.
type Collector struct {
	cfg    Config
	commit CommitMode
	adm    *admission

	srv *server.Server // immutable; ServeOne under serveMu, DrainAdvice under the gate's write lock
	log *epochlog.Log  // immutable pointer; the log is internally synchronized

	// gate is the epoch gate: a request holds it shared from its REQ
	// append through its RESP append, and a rotation holds it exclusively
	// — so a seal can never split a REQ/RESP pair across epochs.
	gate sync.RWMutex
	// ridMu orders RID assignment with the REQ enqueue, so the trace
	// admits requests in RID order even under concurrency.
	ridMu   sync.Mutex
	nextRID uint64
	// serveMu serializes the deterministic dispatch loop: server.ServeOne
	// is single-threaded by design, the concurrency lives in the commit
	// path on either side of it.
	serveMu sync.Mutex
	// sealMu serializes whole seals (rotate + finish) across their
	// triggers: threshold, age, /seal, Close.
	sealMu sync.Mutex

	mu          sync.Mutex // guards the mutable state below
	served      int
	lastSeal    time.Time
	lastSealErr error
	closed      bool

	loopTicker *time.Ticker
	loopDone   chan struct{}
}

// New opens (or creates) the epoch log and boots a fresh application
// instance behind it. Reopening a directory a previous incarnation wrote
// to is a restart: the recovered partial epoch (if any) is sealed as-is,
// the RID counter resumes past every RID the log has seen, and the next
// epoch is marked fresh so the auditor knows the application state was
// rebuilt (see recoverIncarnation).
func New(cfg Config) (*Collector, error) {
	if cfg.Mode == "" {
		cfg.Mode = advice.ModeKarousos
	}
	commit := cfg.commitMode()
	switch commit {
	case CommitGroup, CommitPerRequest:
	default:
		return nil, fmt.Errorf("collectorhttp: unknown commit mode %q", commit)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxQueuedBytes <= 0 {
		cfg.MaxQueuedBytes = 32 << 20
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	if cfg.AuditProgress != nil && cfg.MaxAuditLag <= 0 {
		cfg.MaxAuditLag = 64
	}
	if err := cfg.fs().MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeMeta(cfg.fs(), cfg.Dir, Meta{App: cfg.Spec.Name, Mode: cfg.Mode}); err != nil {
		return nil, err
	}
	l, err := epochlog.Open(cfg.Dir, epochlog.Options{
		MaxAdviceBytes: cfg.Limits.MaxAdviceBytes,
		FS:             cfg.FS,
		GroupCommit:    commit == CommitGroup,
		Backoff:        cfg.Backoff,
	})
	if err != nil {
		return nil, err
	}
	nextRID, err := recoverIncarnation(l)
	if err != nil {
		l.Close() //karousos:errladder-ok close-after-error cleanup; the recovery failure is the error that surfaces
		return nil, err
	}
	app, store := cfg.Spec.New()
	srv := server.New(server.Config{
		App:             app,
		Store:           store,
		Seed:            cfg.Seed,
		CollectKarousos: cfg.Mode == advice.ModeKarousos,
		CollectOrochi:   cfg.Mode == advice.ModeOrochiJS,
	})
	lagLimit := 0
	if cfg.AuditProgress != nil {
		lagLimit = cfg.MaxAuditLag
	}
	c := &Collector{
		cfg:      cfg,
		commit:   commit,
		adm:      newAdmission(cfg.MaxInflight, cfg.MaxQueuedBytes, lagLimit),
		srv:      srv,
		log:      l,
		nextRID:  nextRID,
		lastSeal: time.Now(),
	}
	if cfg.EpochMaxAge > 0 || cfg.AuditProgress != nil {
		interval := 250 * time.Millisecond
		if cfg.EpochMaxAge > 0 {
			interval = cfg.EpochMaxAge / 2
		}
		c.loopTicker = time.NewTicker(interval)
		c.loopDone = make(chan struct{})
		go c.maintenanceLoop()
	}
	return c, nil
}

// recoverIncarnation reconciles a freshly built application instance with
// an epoch log a previous collector incarnation wrote to. The previous
// incarnation's in-memory state is gone, so three things must happen before
// serving resumes: any recovered partial epoch is sealed as-is (its advice,
// if the crash lost part of it, honestly rejects — it cannot be completed
// by a runtime that never served those requests); the RID counter is
// recovered from the sealed manifests so RIDs never repeat across
// incarnations (server.DrainAdvice's carry rebasing depends on that); and
// the new active epoch is marked fresh on the trusted channel so the
// auditor drops prior-epoch carry instead of falsely rejecting the rebuilt
// state. On a pristine directory it returns 0 and marks nothing.
func recoverIncarnation(l *epochlog.Log) (uint64, error) {
	if events, _ := l.ActiveEvents(); events > 0 {
		// The epoch is sealed with whatever advice survived the crash, and
		// flagged degraded on the trusted channel: its evidence may be
		// incomplete through no fault of the server, so a failed audit of it
		// is Unauditable, not a rejection.
		l.MarkDegraded("recovered partial epoch from crashed incarnation")
		if _, err := l.Seal(); err != nil {
			return 0, fmt.Errorf("collectorhttp: sealing recovered partial epoch: %w", err)
		}
	}
	sealed := l.Sealed()
	if len(sealed) == 0 {
		return 0, nil
	}
	var next uint64
	for _, m := range sealed {
		if m.LastRID == "" {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(m.LastRID, "r%d", &n); err != nil {
			return 0, fmt.Errorf("collectorhttp: cannot recover request counter: epoch %d last rid %q: %v", m.Seq, m.LastRID, err)
		}
		if n > next {
			next = n
		}
	}
	if next == 0 {
		return 0, fmt.Errorf("collectorhttp: cannot recover request counter: none of the %d sealed epochs records a last rid", len(sealed))
	}
	if err := l.MarkFresh(); err != nil {
		return 0, err
	}
	return next, nil
}

func writeMeta(fsys iofault.FS, dir string, m Meta) error {
	blob, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return fsys.WriteFile(filepath.Join(dir, MetaFile), blob, 0o644)
}

// ReadMeta loads the sidecar record from an epoch log directory.
func ReadMeta(dir string) (Meta, error) {
	blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(blob, &m); err != nil {
		return Meta{}, fmt.Errorf("collectorhttp: bad %s: %w", MetaFile, err)
	}
	return m, nil
}

// maintenanceLoop is the collector's background tick: it refreshes the
// audit-lag signal feeding the admission window, and seals the active
// epoch when it outlives EpochMaxAge.
func (c *Collector) maintenanceLoop() {
	for {
		select {
		case <-c.loopDone:
			return
		case <-c.loopTicker.C:
			c.refreshLag()
			if c.cfg.EpochMaxAge <= 0 {
				continue
			}
			c.mu.Lock()
			due := !c.closed && time.Since(c.lastSeal) >= c.cfg.EpochMaxAge
			c.mu.Unlock()
			if due {
				//karousos:errladder-ok seal failure is held in lastSealErr (flips /readyz) and retried on the next tick
				_, _ = c.seal()
			}
		}
	}
}

// refreshLag polls the auditor's progress and feeds the admission window.
// Lag is measured in sealed-but-unaudited epochs: the distance between the
// newest epoch the collector has made auditable and the newest one the
// auditor has actually graded.
func (c *Collector) refreshLag() {
	if c.cfg.AuditProgress == nil {
		return
	}
	audited, ok := c.cfg.AuditProgress()
	if !ok {
		return
	}
	sealedThrough := c.log.ActiveSeq() - 1
	lag := 0
	if sealedThrough > audited {
		lag = int(sealedThrough - audited)
	}
	c.adm.observeLag(lag)
}

// Invoke is the client side of POST /invoke: it posts one request input
// to the collector (or the gateway fronting collectors) at base.
func Invoke(c *http.Client, base string, input value.V) (*http.Response, error) {
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		return nil, err
	}
	return c.Post(base+"/invoke", "application/json", bytes.NewReader(body))
}

// Handler returns the collector's HTTP mux:
//
//	POST /invoke  {"input": <value>} → {"rid": "...", "output": <value>}
//	POST /advice  raw advice blob for the active epoch (untrusted)
//	POST /seal    force-seal the active epoch → manifest (204 when empty)
//	GET  /status  counters and epoch positions
//	GET  /healthz epoch-log + admission detail, always 200 while the process lives
//	GET  /readyz  200 when accepting traffic, 503 when closed, seal-stuck,
//	              saturated, or too far ahead of the auditor
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", c.handleInvoke)
	mux.HandleFunc("POST /advice", c.handleAdvice)
	mux.HandleFunc("POST /seal", c.handleSeal)
	mux.HandleFunc("GET /status", c.handleStatus)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	return mux
}

// shed refuses an arrival with 429 and a jittered Retry-After hint, so a
// synchronized burst's retries do not come back in phase.
func (c *Collector) shed(w http.ResponseWriter, reason string) {
	base := c.cfg.RetryAfter
	if base <= 0 {
		base = time.Second
	}
	d := base + time.Duration(rand.Int63n(int64(base)))
	secs := int((d + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, reason, http.StatusTooManyRequests)
}

func (c *Collector) handleInvoke(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request exceeds byte limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var body struct {
		Input json.RawMessage `json:"input"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var input value.V
	if len(body.Input) > 0 {
		if err := json.Unmarshal(body.Input, &input); err != nil {
			http.Error(w, "bad input value: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	input = value.Normalize(input)

	// Admission: claim a slot in the bounded window or shed now. Queuing
	// past the window would only move the overload into an unbounded
	// queue the disk cannot drain — and a collector that dies with a deep
	// queue dies holding evidence it never made durable.
	cost := int64(len(raw))
	if !c.adm.tryAdmit(cost) {
		c.shed(w, "admission window full")
		return
	}
	defer c.adm.release(cost)

	ctx := r.Context()
	if c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}

	rid, out, status, refuse := c.serveAdmitted(ctx, input)
	if refuse != "" {
		if status == http.StatusTooManyRequests {
			// Shed past admission (the commit queue itself is full); count
			// it so the shed gauge covers every 429 the collector sends.
			c.adm.noteShed()
			c.shed(w, refuse)
			return
		}
		http.Error(w, refuse, status)
		return
	}

	if c.cfg.EpochRequests > 0 {
		if _, reqs := c.log.ActiveEvents(); reqs >= c.cfg.EpochRequests {
			// A failed threshold seal must not fail the request that tripped
			// it — the response is already computed and recorded. The error
			// is held in lastSealErr (flips /readyz) and the seal retries on
			// the next request or age tick.
			//karousos:errladder-ok seal failure must not fail the admitted request; held in lastSealErr and retried
			_, _ = c.seal()
		}
	}
	writeJSON(w, status, map[string]any{"rid": string(rid), "output": out})
}

// serveAdmitted runs one admitted request under the epoch gate: REQ
// append, execution, and RESP append all happen inside one shared hold, so
// a concurrent rotation can never split the pair across epochs. It returns
// either a served result (refuse == "", status 200/500) or a refusal
// (refuse != "" with its status code).
func (c *Collector) serveAdmitted(ctx context.Context, input value.V) (core.RID, value.V, int, string) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return "", nil, http.StatusServiceUnavailable, "collector closed"
	}

	// Trusted path: the request is ground truth the moment it is admitted,
	// before any untrusted execution runs. RID assignment and the REQ
	// enqueue share one critical section so the trace admits requests in
	// RID order. If the append fails past the retry budget the request is
	// refused outright — serving a request the trace never admitted would
	// make the collector itself the gap in the evidence. The RID is not
	// rolled back: RIDs must only ever grow, and audit keys on the trace,
	// not the counter.
	c.ridMu.Lock()
	c.nextRID++
	rid := core.RID(fmt.Sprintf("r%08d", c.nextRID))
	reqAck := c.log.AppendEventAsync(ctx, trace.Event{Kind: trace.Req, RID: string(rid), Data: input})
	c.ridMu.Unlock()
	if err := reqAck.Wait(); err != nil {
		if errors.Is(err, epochlog.ErrCommitQueueFull) {
			return "", nil, http.StatusTooManyRequests, "epoch log: " + err.Error()
		}
		return "", nil, http.StatusServiceUnavailable, "epoch log: " + err.Error()
	}

	c.serveMu.Lock()
	out, serveErr := c.srv.ServeOne(server.Request{RID: rid, Input: input})
	// The internal collector recorded the same pair; drain it so a
	// long-running collector's memory stays bounded. The epoch log copy is
	// the ground truth the auditor reads.
	_ = c.srv.TakeTrace()
	c.serveMu.Unlock()
	if serveErr != nil {
		// The request was admitted, so the trace must still balance: record
		// the failure as the response the client observed. An audit of this
		// epoch will reject — correctly, since re-execution cannot
		// reproduce a response the handler never produced.
		out = value.Normalize(value.Map("error", serveErr.Error()))
	}

	// The RESP rides a background context: the response already left the
	// application, so its record must not be abandoned to a client
	// deadline — the trace has to balance. If the append still fails, the
	// client keeps its response (refusing it now would lose work a client
	// may retry non-idempotently) and the epoch is flagged: its trace is
	// unbalanced through an infrastructure fault, so the auditor grades it
	// Unauditable rather than rejected.
	respAck := c.log.AppendEventAsync(context.Background(), trace.Event{Kind: trace.Resp, RID: string(rid), Data: out})
	if err := respAck.Wait(); err != nil {
		c.log.MarkDegraded("response append failed for " + string(rid) + ": " + err.Error())
	}

	c.mu.Lock()
	c.served++
	c.mu.Unlock()
	status := http.StatusOK
	if serveErr != nil {
		status = http.StatusInternalServerError
	}
	return rid, out, status, ""
}

func (c *Collector) handleAdvice(w http.ResponseWriter, r *http.Request) {
	max := int64(c.cfg.Limits.MaxAdviceBytes)
	if max <= 0 {
		max = 1 << 30
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		// A partial body (client disconnect mid-upload) must never land in
		// the log as a complete record: the last intact record wins at
		// seal, so a truncated re-upload would clobber good advice.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "advice exceeds byte limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading advice body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The upload holds the epoch gate shared so the blob cannot straddle a
	// rotation and land in an epoch it does not describe.
	c.gate.RLock()
	defer c.gate.RUnlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		http.Error(w, "collector closed", http.StatusServiceUnavailable)
		return
	}
	err = iofault.Retry(r.Context(), c.cfg.Backoff, func() error {
		return c.log.AppendAdvice(blob)
	})
	if err != nil {
		if errors.Is(err, epochlog.ErrAdviceTooLarge) {
			// Client fault, not infrastructure: the epoch is not degraded.
			http.Error(w, "epoch log: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		// The advice channel is untrusted and lossy by design: losing an
		// upload never stops the collector from recording the trace, it only
		// flags the epoch so a failed audit grades Unauditable.
		c.log.MarkDegraded("advice append failed: " + err.Error())
		status := http.StatusInternalServerError
		if iofault.Classify(err) == iofault.ClassDegraded {
			status = http.StatusInsufficientStorage
		}
		http.Error(w, "epoch log: "+err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Collector) handleSeal(w http.ResponseWriter, r *http.Request) {
	m, err := c.seal()
	if err != nil {
		http.Error(w, "seal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if m == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// Status is the collector's observable state.
type Status struct {
	App            string `json:"app"`
	Mode           string `json:"mode"`
	Served         int    `json:"served"`
	ActiveSeq      uint64 `json:"activeSeq"`
	ActiveEvents   int    `json:"activeEvents"`
	ActiveRequests int    `json:"activeRequests"`
	SealedEpochs   int    `json:"sealedEpochs"`
	// Shed counts arrivals refused with 429 since boot.
	Shed uint64 `json:"shed,omitempty"`
}

func (c *Collector) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// Status reports the collector's counters.
func (c *Collector) Status() Status {
	c.mu.Lock()
	served := c.served
	c.mu.Unlock()
	events, reqs := c.log.ActiveEvents()
	return Status{
		App:            c.cfg.Spec.Name,
		Mode:           string(c.cfg.Mode),
		Served:         served,
		ActiveSeq:      c.log.ActiveSeq(),
		ActiveEvents:   events,
		ActiveRequests: reqs,
		SealedEpochs:   len(c.log.Sealed()),
		Shed:           c.adm.snapshot().Shed,
	}
}

// Health is the epoch-log and admission health detail served on /healthz.
type Health struct {
	App            string `json:"app"`
	Mode           string `json:"mode"`
	CommitMode     string `json:"commitMode"`
	ActiveSeq      uint64 `json:"activeSeq"`
	ActiveEvents   int    `json:"activeEvents"`
	ActiveRequests int    `json:"activeRequests"`
	SealedEpochs   int    `json:"sealedEpochs"`
	// PendingSeals counts epochs rotated out but not yet durably sealed.
	PendingSeals int `json:"pendingSeals,omitempty"`
	// OpenEpochAgeMS is how long ago the last seal completed — how stale
	// the auditable prefix is.
	OpenEpochAgeMS int64 `json:"openEpochAgeMs"`
	// LastSealError is the most recent seal attempt's failure, "" once a
	// seal succeeds again.
	LastSealError string `json:"lastSealError,omitempty"`
	// Degraded is the active epoch's degradation reason, "" when the
	// current evidence is complete.
	Degraded string `json:"degraded,omitempty"`
	Closed   bool   `json:"closed,omitempty"`
	// Admission is the bounded intake's state, including the audit-lag
	// signal it tightens on.
	Admission AdmissionState `json:"admission"`
	// AuditMemo is the audit pipeline's memo-cache traffic, present only
	// when Config.AuditMemo reports it.
	AuditMemo *AuditMemoState `json:"auditMemo,omitempty"`
}

// HealthSnapshot reports the collector's epoch-log and admission health.
func (c *Collector) HealthSnapshot() Health {
	c.mu.Lock()
	lastSeal, lastSealErr, closed := c.lastSeal, c.lastSealErr, c.closed
	c.mu.Unlock()
	events, reqs := c.log.ActiveEvents()
	h := Health{
		App:            c.cfg.Spec.Name,
		Mode:           string(c.cfg.Mode),
		CommitMode:     string(c.commit),
		ActiveSeq:      c.log.ActiveSeq(),
		ActiveEvents:   events,
		ActiveRequests: reqs,
		SealedEpochs:   len(c.log.Sealed()),
		PendingSeals:   c.log.PendingSeals(),
		OpenEpochAgeMS: time.Since(lastSeal).Milliseconds(),
		Degraded:       c.log.Degraded(),
		Closed:         closed,
		Admission:      c.adm.snapshot(),
	}
	if lastSealErr != nil {
		h.LastSealError = lastSealErr.Error()
	}
	if c.cfg.AuditMemo != nil {
		if ms, ok := c.cfg.AuditMemo(); ok {
			h.AuditMemo = &ms
		}
	}
	return h
}

func (c *Collector) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.refreshLag()
	writeJSON(w, http.StatusOK, c.HealthSnapshot())
}

func (c *Collector) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.refreshLag()
	h := c.HealthSnapshot()
	switch {
	case h.Closed:
		http.Error(w, "collector closed", http.StatusServiceUnavailable)
	case h.LastSealError != "":
		http.Error(w, "seal failing: "+h.LastSealError, http.StatusServiceUnavailable)
	case h.Admission.Saturated:
		// Not an error state — the collector is doing its job — but a load
		// balancer should drain traffic before clients start seeing 429s.
		http.Error(w, "admission window saturated", http.StatusServiceUnavailable)
	case h.Admission.MaxAuditLag > 0 && h.Admission.AuditLag > h.Admission.MaxAuditLag:
		http.Error(w, fmt.Sprintf("audit lag %d epochs exceeds %d", h.Admission.AuditLag, h.Admission.MaxAuditLag), http.StatusServiceUnavailable)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// Seal drains the runtime's advice into the active epoch and seals it.
// Sealing an empty epoch is a no-op returning (nil, nil) — unless earlier
// rotated epochs are still pending their durable seal, in which case those
// are finished.
func (c *Collector) Seal() (*epochlog.Manifest, error) {
	return c.seal()
}

// seal rotates the active epoch out and finishes its durable seal. The
// rotation runs under the epoch gate's write lock — no request holds the
// gate, so no REQ/RESP pair can straddle the boundary — and is memory-only;
// the fsync-heavy half runs after the gate is released, so in-flight
// traffic resumes while the rotated epoch syncs. sealMu keeps concurrent
// seal triggers from interleaving, and a failed finish stays pending:
// the next seal attempt retries it before anything newer.
func (c *Collector) seal() (*epochlog.Manifest, error) {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	c.gate.Lock()
	err := c.rotateGated()
	c.gate.Unlock()
	var m *epochlog.Manifest
	if err == nil {
		m, err = c.log.FinishSeals()
	}
	c.mu.Lock()
	c.lastSealErr = err
	if m != nil {
		// Even a partially failed finish that sealed something restarts the
		// age clock: the auditable prefix did advance.
		c.lastSeal = time.Now()
	}
	c.mu.Unlock()
	c.refreshLag()
	return m, err
}

// rotateGated drains the runtime's advice into the active epoch and
// rotates it out. Caller holds c.gate exclusively and c.sealMu.
func (c *Collector) rotateGated() error {
	if events, _ := c.log.ActiveEvents(); events == 0 {
		return nil
	}
	kar, oro := c.srv.DrainAdvice()
	adv := kar
	if c.cfg.Mode == advice.ModeOrochiJS {
		adv = oro
	}
	if adv != nil {
		err := iofault.Retry(context.Background(), c.cfg.Backoff, func() error {
			return c.log.AppendAdvice(adv.MarshalBinary())
		})
		if err != nil {
			// The drain already consumed the runtime's advice; it cannot be
			// re-produced. Seal anyway with the epoch flagged degraded — the
			// trusted trace is intact and must not be held hostage to the
			// advice channel.
			c.log.MarkDegraded("advice lost at seal: " + err.Error())
		}
	}
	_, err := c.log.Rotate()
	return err
}

// Crash abandons the collector the way a killed process would: no seal,
// the active epoch's tail left on disk for the next incarnation to recover.
// Chaos scenarios use it; production code wants Close.
func (c *Collector) Crash() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.stopLoopLocked()
	c.mu.Unlock()
	return c.log.Close()
}

// Close seals any partial epoch and releases the log. Safe to call once.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.stopLoopLocked()
	c.mu.Unlock()
	// In-flight requests finish under the gate before the final seal's
	// rotation; new arrivals see closed and are refused.
	_, sealErr := c.seal()
	logErr := c.log.Close()
	if sealErr != nil {
		return sealErr
	}
	return logErr
}

// stopLoopLocked stops the maintenance loop. Caller holds c.mu.
func (c *Collector) stopLoopLocked() {
	if c.loopTicker != nil {
		c.loopTicker.Stop()
		close(c.loopDone)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //karousos:errladder-ok best-effort response body; the status header is already sent
}
