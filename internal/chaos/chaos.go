// Package chaos is a deterministic fault-scenario runner for the
// continuous-audit pipeline. A Scenario scripts a workload interleaved
// with infrastructure misfortune — injected I/O faults armed and healed at
// chosen points, collector crashes, auditor kills — and Run replays it
// single-threaded so the same seed always produces the same sequence of
// faults, seals, and verdicts.
//
// The runner exists to check the robustness invariants the rest of this
// module promises (DESIGN.md §11):
//
//   - infrastructure faults never manufacture accusations: an honest
//     server under chaos is graded Accepted or Unauditable, never rejected;
//   - verdicts are deterministic: an epoch graded more than once (auditor
//     restarts, lost checkpoints) always re-grades to the same code;
//   - evidence is never destroyed: every trace/advice/manifest file that
//     ever existed still exists afterwards, possibly quarantined, never
//     deleted;
//   - the sealed prefix only grows.
//
// Violations are collected in Result.Violations rather than returned as
// errors, so a scenario can observe several at once.
package chaos

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// Fault arms one iofault operator on one component.
type Fault struct {
	// Component is "collector" or "auditd".
	Component string `json:"component"`
	// Spec is an iofault "op[:seed[:times]]" spec.
	Spec string `json:"spec"`
	// PathContains restricts the operator to matching paths ("" = all).
	PathContains string `json:"pathContains,omitempty"`
}

// Event is one scripted step, applied before driving request AtRequest
// (0-based). Multiple events may share an index; they apply in order.
type Event struct {
	AtRequest int     `json:"atRequest"`
	Arm       []Fault `json:"arm,omitempty"`
	// HealCollector / HealAuditor disarm every operator on that component.
	HealCollector bool `json:"healCollector,omitempty"`
	HealAuditor   bool `json:"healAuditor,omitempty"`
	// CrashCollector kills the collector without sealing and restarts it,
	// exactly as a process kill + supervisor restart would.
	CrashCollector bool `json:"crashCollector,omitempty"`
	// CrashAuditor discards the auditor instance (its in-memory carry dies
	// with it) and rebuilds from the durable checkpoint.
	CrashAuditor bool `json:"crashAuditor,omitempty"`
}

// Scenario is a deterministic chaos script.
type Scenario struct {
	// App names the application (harness.SpecByName).
	App string `json:"app"`
	// Seed seeds the workload generator and the collector's scheduler.
	Seed int64 `json:"seed"`
	// Requests is the total workload length.
	Requests int `json:"requests"`
	// EpochRequests is the collector's seal threshold.
	EpochRequests int     `json:"epochRequests"`
	Events        []Event `json:"events,omitempty"`
}

// Result is what a scenario run observed.
type Result struct {
	Served  int `json:"served"`
	Refused int `json:"refused"`
	Sealed  int `json:"sealed"`
	// Verdicts is the final verdict per epoch, ordered by epoch.
	Verdicts []auditd.Verdict `json:"verdicts"`
	// Grades counts final verdicts by code ("" = accepted).
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	Unauditable int `json:"unauditable"`
	// AuditorRestarts counts infra-fault rebuilds plus scripted kills.
	AuditorRestarts  int `json:"auditorRestarts"`
	CollectorCrashes int `json:"collectorCrashes"`
	// Violations are robustness-invariant breaches; empty on a sound run.
	Violations []string `json:"violations,omitempty"`
}

// VerdictKey renders the verdict sequence as a comparable string — epoch
// and code only, since reasons embed scratch-directory paths.
func (r *Result) VerdictKey() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
	}
	return b.String()
}

// maxAuditorRebuilds bounds the auditor's supervision so a scenario whose
// faults never heal terminates instead of spinning.
const maxAuditorRebuilds = 16

type runner struct {
	sc     Scenario
	spec   harness.AppSpec
	logDir string
	ckpt   string

	cInj *iofault.Injector
	aInj *iofault.Injector
	back iofault.Backoff

	col *collectorhttp.Collector
	ts  *httptest.Server
	sup *auditd.Supervisor

	res *Result
	// graded remembers each epoch's first verdict code to check that
	// re-grades never flip, and last holds the most recent verdict.
	graded map[uint64]core.RejectCode
	last   map[uint64]auditd.Verdict
	// evidence is every evidence filename ever observed in logDir.
	evidence   map[string]bool
	prevSealed int
}

// Run replays the scenario in dir (a scratch directory the caller owns)
// and reports what happened. The error return is for runner breakage —
// invariant violations land in Result.Violations instead.
func Run(dir string, sc Scenario) (*Result, error) {
	spec, err := harness.SpecByName(sc.App)
	if err != nil {
		return nil, err
	}
	if sc.Requests <= 0 || sc.EpochRequests <= 0 {
		return nil, fmt.Errorf("chaos: scenario needs positive Requests and EpochRequests")
	}
	reqs, err := workload.For(sc.App, workload.Mixed, sc.Requests, sc.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		sc:       sc,
		spec:     spec,
		logDir:   filepath.Join(dir, "log"),
		ckpt:     filepath.Join(dir, "auditd.ckpt"),
		cInj:     iofault.NewInjector(nil),
		aInj:     iofault.NewInjector(nil),
		back:     iofault.Backoff{Sleep: func(time.Duration) {}},
		res:      &Result{},
		graded:   map[uint64]core.RejectCode{},
		last:     map[uint64]auditd.Verdict{},
		evidence: map[string]bool{},
	}
	if err := r.openCollector(); err != nil {
		return nil, err
	}
	defer func() {
		if r.ts != nil {
			r.ts.Close()
		}
		if r.col != nil {
			r.col.Close()
		}
	}()
	// Workers: 1 keeps the injector's fault schedule single-threaded.
	r.sup = auditd.NewSupervisor(auditd.Config{
		Dir:        r.logDir,
		Spec:       spec,
		Checkpoint: r.ckpt,
		Workers:    1,
		FS:         r.aInj,
		Backoff:    r.back,
		OnVerdict:  r.onVerdict,
	}, maxAuditorRebuilds)

	events := map[int][]Event{}
	for _, ev := range sc.Events {
		events[ev.AtRequest] = append(events[ev.AtRequest], ev)
	}
	ctx := context.Background()

	for i, req := range reqs {
		for _, ev := range events[i] {
			if err := r.apply(ev); err != nil {
				return r.res, err
			}
		}
		r.invoke(req)
		if err := r.step(ctx); err != nil {
			return r.res, err
		}
		r.checkInvariants()
	}

	// Shutdown: the collector seals its final partial epoch, then the
	// auditor drains everything sealed.
	r.ts.Close()
	r.ts = nil
	if err := r.col.Close(); err != nil && r.res != nil {
		r.res.Violations = append(r.res.Violations, "final seal failed: "+err.Error())
	}
	r.col = nil
	sealed, err := epochlog.ListSealed(r.logDir)
	if err != nil {
		return r.res, err
	}
	r.res.Sealed = len(sealed)
	var lastSeq uint64
	if len(sealed) > 0 {
		lastSeq = sealed[len(sealed)-1].Seq
	}
	// A rebuilt auditor resumes from the checkpoint, which may sit behind
	// the epoch whose grade died with the incarnation — so a step without
	// forward progress is normal right after a rebuild. Only a long run of
	// them means the drain is actually wedged.
	stuck := 0
	for r.sup.Halted() == nil {
		before := r.lastProcessed()
		if before >= lastSeq {
			break
		}
		if err := r.step(ctx); err != nil {
			return r.res, err
		}
		if r.lastProcessed() <= before {
			if stuck++; stuck > 2*maxAuditorRebuilds {
				return r.res, fmt.Errorf("chaos: audit drain stuck at epoch %d of %d", before, lastSeq)
			}
		} else {
			stuck = 0
		}
	}
	r.checkInvariants()
	r.finish()
	return r.res, nil
}

func (r *runner) openCollector() error {
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          r.spec,
		Dir:           r.logDir,
		EpochRequests: r.sc.EpochRequests,
		Seed:          r.sc.Seed,
		FS:            r.cInj,
		Backoff:       r.back,
	})
	if err != nil {
		return fmt.Errorf("chaos: collector: %w", err)
	}
	r.col = col
	r.ts = httptest.NewServer(col.Handler())
	return nil
}

func (r *runner) apply(ev Event) error {
	for _, f := range ev.Arm {
		inj := r.cInj
		if f.Component == "auditd" {
			inj = r.aInj
		} else if f.Component != "collector" {
			return fmt.Errorf("chaos: unknown component %q", f.Component)
		}
		if err := inj.ArmSpec(f.Spec, f.PathContains); err != nil {
			return fmt.Errorf("chaos: arming %q on %s: %w", f.Spec, f.Component, err)
		}
	}
	if ev.HealCollector {
		r.cInj.Heal()
	}
	if ev.HealAuditor {
		r.aInj.Heal()
	}
	if ev.CrashCollector {
		r.ts.Close()
		if err := r.col.Crash(); err != nil {
			return fmt.Errorf("chaos: crashing collector: %w", err)
		}
		r.res.CollectorCrashes++
		if err := r.openCollector(); err != nil {
			return err
		}
	}
	if ev.CrashAuditor {
		r.sup.Crash()
	}
	return nil
}

func (r *runner) invoke(req server.Request) {
	resp, err := collectorhttp.Invoke(r.ts.Client(), r.ts.URL, req.Input)
	if err != nil {
		r.res.Refused++
		return
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		r.res.Served++
	} else {
		r.res.Refused++
	}
}

// step runs one supervised audit pass. Honest rejections halt the
// supervisor (recorded, not an error); the supervisor rebuilds the auditor
// from its checkpoint on anything else, and the run fails once rebuilds —
// scripted kills included — pass the bound.
func (r *runner) step(ctx context.Context) error {
	_, err := r.sup.Step(ctx)
	_, r.res.AuditorRestarts = r.sup.Status()
	if err != nil {
		return fmt.Errorf("chaos: auditor: %w", err)
	}
	if r.res.AuditorRestarts > maxAuditorRebuilds {
		return fmt.Errorf("chaos: auditor exceeded %d rebuilds", maxAuditorRebuilds)
	}
	return nil
}

func (r *runner) lastProcessed() uint64 {
	st, _ := r.sup.Status()
	return st.LastProcessed
}

func (r *runner) onVerdict(v auditd.Verdict) {
	if first, ok := r.graded[v.Epoch]; ok {
		if first != v.Code {
			r.res.Violations = append(r.res.Violations, fmt.Sprintf(
				"verdict flip: epoch %d graded %q then %q", v.Epoch, first, v.Code))
		}
	} else {
		r.graded[v.Epoch] = v.Code
	}
	r.last[v.Epoch] = v
}

// checkInvariants scans the log directory with the real OS filesystem (so
// the probes never consume injected fault schedules).
func (r *runner) checkInvariants() {
	entries, err := os.ReadDir(r.logDir)
	if err != nil {
		r.res.Violations = append(r.res.Violations, "evidence scan: "+err.Error())
		return
	}
	present := map[string]bool{}
	for _, ent := range entries {
		name := ent.Name()
		present[name] = true
		if isEvidence(name) {
			r.evidence[strings.TrimSuffix(name, ".quarantined")] = true
		}
	}
	for name := range r.evidence {
		if !present[name] && !present[name+".quarantined"] {
			r.res.Violations = append(r.res.Violations, "evidence deleted: "+name)
		}
	}
	sealed, err := epochlog.ListSealed(r.logDir)
	if err != nil {
		// Transient listing trouble is the auditor's problem, not an
		// invariant breach; the next probe re-checks.
		return
	}
	if len(sealed) < r.prevSealed {
		r.res.Violations = append(r.res.Violations, fmt.Sprintf(
			"sealed prefix shrank: %d -> %d", r.prevSealed, len(sealed)))
	}
	r.prevSealed = len(sealed)
}

func isEvidence(name string) bool {
	base := strings.TrimSuffix(name, ".quarantined")
	return strings.HasPrefix(base, "ep") &&
		(strings.HasSuffix(base, ".trace") || strings.HasSuffix(base, ".advice") || strings.HasSuffix(base, ".manifest"))
}

// finish turns the per-epoch verdict map into the ordered final tally and
// applies the honest-run grading invariant: this runner only scripts
// infrastructure faults, so a Rejected verdict is always a violation.
func (r *runner) finish() {
	epochs := make([]uint64, 0, len(r.last))
	for seq := range r.last {
		epochs = append(epochs, seq)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, seq := range epochs {
		v := r.last[seq]
		r.res.Verdicts = append(r.res.Verdicts, v)
		switch v.Code {
		case "":
			r.res.Accepted++
		case core.RejectUnauditable:
			r.res.Unauditable++
		default:
			r.res.Rejected++
			r.res.Violations = append(r.res.Violations, fmt.Sprintf(
				"false reject: epoch %d [%s] %s", v.Epoch, v.Code, v.Reason))
		}
	}
}

// AcceptanceScenario is the ISSUE's fixed-seed criterion: a collector
// crash, transient EIO on the auditor's reads, and an advice outage for
// one epoch. Expected outcome: zero rejects, exactly one Unauditable epoch
// (the outage epoch), every other epoch accepted, and identical verdicts
// on every run with the same seed.
func AcceptanceScenario(app string, seed int64) Scenario {
	return Scenario{
		App:           app,
		Seed:          seed,
		Requests:      40,
		EpochRequests: 10,
		Events: []Event{
			// Transient read trouble for the auditor from the start.
			{AtRequest: 0, Arm: []Fault{{Component: "auditd", Spec: fmt.Sprintf("transient-eio:%d:3", seed)}}},
			// Epoch 2 (requests 10-19) loses its advice channel to a full
			// disk; the trusted trace keeps flowing. Seed 0 keeps the
			// operator gapless — a disk stays full, it does not flicker.
			{AtRequest: 10, Arm: []Fault{{Component: "collector", Spec: "enospc:0:-1", PathContains: ".advice"}}},
			// Disk recovers; the collector process dies and restarts with
			// epoch 2 sealed, so epoch 3 begins at a Fresh boundary.
			{AtRequest: 20, HealCollector: true, CrashCollector: true},
		},
	}
}
