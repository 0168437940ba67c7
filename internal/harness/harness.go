// Package harness drives the paper's experiments end-to-end: it serves a
// workload through the server runtime (in unmodified, Karousos, or Orochi-JS
// collection modes), times the serving, measures advice size, and runs the
// three verifiers (Karousos, Orochi-JS, sequential re-execution) against the
// resulting trace. The root bench_test.go and cmd/karousos-bench both sit on
// top of this package, so the figures and the go-bench numbers come from the
// same code path.
package harness

import (
	"fmt"
	"io"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/apps/feeds"
	"karousos.dev/karousos/internal/apps/motd"
	"karousos.dev/karousos/internal/apps/stacks"
	"karousos.dev/karousos/internal/apps/wiki"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/seqreexec"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// AppSpec describes one auditable application: how to build a fresh instance
// (with its store, when it uses one) and which isolation level the store
// provides.
type AppSpec struct {
	Name      string
	UsesStore bool
	Isolation adya.Level
	// KeyFields are the request-input fields a sharded topology routes by
	// (shard.Map.KeyFields), tried in order: the field naming the state a
	// request touches, so requests over the same state share a shard.
	KeyFields []string
	// New returns a fresh application and, when UsesStore, a fresh store.
	New func() (*core.App, *kvstore.Store)
}

// MOTDApp returns the message-of-the-day application spec.
func MOTDApp() AppSpec {
	return AppSpec{
		Name:      "motd",
		KeyFields: []string{"day"},
		New:       func() (*core.App, *kvstore.Store) { return motd.New(), nil },
	}
}

// StacksApp returns the stack-dump application spec; its store runs
// serializable, which is where the retry-error behavior comes from.
func StacksApp() AppSpec {
	return AppSpec{
		Name:      "stacks",
		UsesStore: true,
		Isolation: adya.Serializable,
		KeyFields: []string{"dump"},
		New: func() (*core.App, *kvstore.Store) {
			return stacks.New(), kvstore.New(kvstore.Serializable)
		},
	}
}

// WikiApp returns the wiki application spec.
func WikiApp() AppSpec {
	return AppSpec{
		Name:      "wiki",
		UsesStore: true,
		Isolation: adya.Serializable,
		KeyFields: []string{"id", "page"},
		New: func() (*core.App, *kvstore.Store) {
			return wiki.New(), kvstore.New(kvstore.Serializable)
		},
	}
}

// FeedsApp returns the dashboard-feeds application spec — the steady-state
// recurring workload of the memo-cache experiments (DESIGN.md §18).
func FeedsApp() AppSpec {
	return AppSpec{
		Name:      "feeds",
		KeyFields: []string{"board"},
		New:       func() (*core.App, *kvstore.Store) { return feeds.New(), nil },
	}
}

// Apps lists every bundled application, freshly built.
func Apps() []AppSpec { return []AppSpec{MOTDApp(), StacksApp(), WikiApp(), FeedsApp()} }

// SpecByName resolves an application by its recorded name — the inverse of
// AppSpec.Name, used by every tool that takes an -app flag or rediscovers
// the app from a run directory or epoch log sidecar.
func SpecByName(name string) (AppSpec, error) {
	for _, spec := range Apps() {
		if spec.Name == name {
			return spec, nil
		}
	}
	return AppSpec{}, fmt.Errorf("harness: unknown app %q (motd, stacks, wiki, feeds)", name)
}

// Collect selects which advice the serving run produces.
type Collect uint8

const (
	// CollectNone is the unmodified server baseline.
	CollectNone Collect = iota
	// CollectKarousos collects Karousos advice only.
	CollectKarousos
	// CollectOrochi collects Orochi-JS advice only.
	CollectOrochi
	// CollectBoth collects both advices in one run (how the artifact
	// produces comparable verification inputs from a single trace).
	CollectBoth
)

// ServeResult is one serving run's output.
type ServeResult struct {
	Trace    *trace.Trace
	Karousos *advice.Advice
	Orochi   *advice.Advice
	// Elapsed is the wall time of the dispatch loop over all requests.
	Elapsed time.Duration
	// Conflicts counts store-level transaction aborts.
	Conflicts int
}

// Serve runs the workload at the given admission concurrency and collection
// mode. The scheduler seed makes runs reproducible.
func Serve(spec AppSpec, reqs []server.Request, concurrency int, seed int64, mode Collect) (*ServeResult, error) {
	app, store := spec.New()
	cfg := server.Config{
		App:             app,
		Store:           store,
		Seed:            seed,
		CollectKarousos: mode == CollectKarousos || mode == CollectBoth,
		CollectOrochi:   mode == CollectOrochi || mode == CollectBoth,
	}
	srv := server.New(cfg)
	start := time.Now()
	res, err := srv.Run(reqs, concurrency)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("harness: serve %s: %w", spec.Name, err)
	}
	return &ServeResult{
		Trace:     res.Trace,
		Karousos:  res.Karousos,
		Orochi:    res.Orochi,
		Elapsed:   elapsed,
		Conflicts: res.Conflicts,
	}, nil
}

// VerifyResult is one audit's outcome and cost.
type VerifyResult struct {
	Elapsed time.Duration
	Stats   verifier.Stats
	Err     error // nil iff the audit accepted
}

// VerifyKarousos audits the trace with the Karousos verifier.
func VerifyKarousos(spec AppSpec, tr *trace.Trace, adv *advice.Advice) *VerifyResult {
	return verify(spec, tr, adv, advice.ModeKarousos)
}

// VerifyOrochi audits the trace with the Orochi-JS verifier.
func VerifyOrochi(spec AppSpec, tr *trace.Trace, adv *advice.Advice) *VerifyResult {
	return verify(spec, tr, adv, advice.ModeOrochiJS)
}

func verify(spec AppSpec, tr *trace.Trace, adv *advice.Advice, mode advice.Mode) *VerifyResult {
	return VerifyWith(spec, tr, adv, VerifyOptions{Mode: mode})
}

// VerifyOptions selects the audit configuration beyond the app spec.
type VerifyOptions struct {
	// Mode selects the advice dialect; the zero value is ModeKarousos.
	Mode advice.Mode
	// Limits bounds the audit's resources; the zero value is unbounded.
	Limits verifier.Limits
	// Workers is the audit's parallelism: 0 means GOMAXPROCS, 1 is the
	// sequential engine. The verdict is identical at every setting.
	Workers int
	// DumpGraph, when non-nil, receives the execution graph G in Graphviz
	// DOT format (cycles highlighted on rejection).
	DumpGraph io.Writer
	// Memo, when non-nil, is the cross-epoch replay cache threaded into
	// the audit (verifier.Config.Memo); the caller owns its lifetime.
	Memo *memo.Cache
}

// VerifyWith audits with explicit options; the other Verify helpers are
// shorthands over it.
func VerifyWith(spec AppSpec, tr *trace.Trace, adv *advice.Advice, opt VerifyOptions) *VerifyResult {
	if opt.Mode == "" {
		opt.Mode = advice.ModeKarousos
	}
	return verifyLimits(spec, tr, adv, opt)
}

func verifyLimits(spec AppSpec, tr *trace.Trace, adv *advice.Advice, opt VerifyOptions) *VerifyResult {
	lim := opt.Limits
	app, _ := spec.New()
	cfg := verifier.Config{
		App: app, Mode: opt.Mode, Isolation: spec.Isolation,
		Limits: lim, Workers: opt.Workers, DumpGraph: opt.DumpGraph,
		Memo: opt.Memo,
	}
	// The advice crosses the network in a deployment (§2.1), so the timed
	// region starts from its serialized form: decoding bigger advice is part
	// of what makes the Orochi-JS verifier slower (§6.2).
	wire := adv.MarshalBinary()
	start := time.Now()
	if err := lim.CheckAdviceBytes(len(wire)); err != nil {
		return &VerifyResult{Elapsed: time.Since(start), Err: err}
	}
	parsed, err := advice.UnmarshalBinary(wire)
	if err != nil {
		return &VerifyResult{Elapsed: time.Since(start), Err: err}
	}
	stats, err := verifier.Audit(cfg, tr, parsed)
	return &VerifyResult{Elapsed: time.Since(start), Stats: stats, Err: err}
}

// SequentialResult is the sequential re-execution baseline's outcome.
type SequentialResult struct {
	Elapsed             time.Duration
	Matched, Mismatched int
	Err                 error
}

// VerifySequential replays the trace one request at a time with no advice.
func VerifySequential(spec AppSpec, tr *trace.Trace) *SequentialResult {
	app, store := spec.New()
	start := time.Now()
	res, err := seqreexec.Run(app, store, tr)
	out := &SequentialResult{Elapsed: time.Since(start), Err: err}
	if res != nil {
		out.Matched = res.Matched
		out.Mismatched = res.Mismatched
	}
	return out
}

// MergeRuns combines two serving runs into one alleged run, as a misbehaving
// server would when executing requests against private copies of the state
// ("split brain"). The merged trace presents all requests as concurrent; the
// merged advice is the union of both runs' advice. Whether the audit accepts
// the result depends on whether some legal schedule explains it — which is
// exactly the paper's Soundness condition, so tests and demos use MergeRuns
// to probe both sides of it.
func MergeRuns(a, b *ServeResult) *ServeResult {
	merged := &ServeResult{Trace: &trace.Trace{}}
	for _, src := range []*ServeResult{a, b} {
		for _, e := range src.Trace.Events {
			if e.Kind == trace.Req {
				merged.Trace.Events = append(merged.Trace.Events, e)
			}
		}
	}
	for _, src := range []*ServeResult{a, b} {
		for _, e := range src.Trace.Events {
			if e.Kind == trace.Resp {
				merged.Trace.Events = append(merged.Trace.Events, e)
			}
		}
	}
	merged.Karousos = mergeAdvice(a.Karousos, b.Karousos)
	merged.Orochi = mergeAdvice(a.Orochi, b.Orochi)
	return merged
}

func mergeAdvice(a, b *advice.Advice) *advice.Advice {
	if a == nil || b == nil {
		return nil
	}
	out := a.Clone()
	bb := b.Clone()
	for rid, tag := range bb.Tags {
		out.Tags[rid] = tag
	}
	for rid, c := range bb.OpCounts {
		out.OpCounts[rid] = c
	}
	for rid, at := range bb.ResponseEmittedBy {
		out.ResponseEmittedBy[rid] = at
	}
	for rid, hl := range bb.HandlerLogs {
		out.HandlerLogs[rid] = hl
	}
	for id, entries := range bb.VarLogs {
		out.VarLogs[id] = append(out.VarLogs[id], dedupVarEntries(out.VarLogs[id], entries)...)
	}
	out.TxLogs = append(out.TxLogs, bb.TxLogs...)
	out.WriteOrder = append(out.WriteOrder, bb.WriteOrder...)
	out.Nondet = append(out.Nondet, bb.Nondet...)
	return out
}

// dedupVarEntries drops entries from add that already exist in base (the two
// runs may both have lazily logged the same init write).
func dedupVarEntries(base, add []advice.VarLogEntry) []advice.VarLogEntry {
	seen := make(map[core.Op]bool, len(base))
	for _, e := range base {
		seen[e.Op] = true
	}
	var out []advice.VarLogEntry
	for _, e := range add {
		if !seen[e.Op] {
			out = append(out, e)
		}
	}
	return out
}

// ServeWarm serves warmup+measured requests on one server instance and
// reports the time taken by the measured portion only, reproducing the
// paper's Figure 6 methodology ("each experiment uses the first 120 requests
// to warm up the application; we report time taken to serve the remaining
// 480").
func ServeWarm(spec AppSpec, reqs []server.Request, warmup, concurrency int, seed int64, mode Collect) (time.Duration, error) {
	if warmup > len(reqs) {
		return 0, fmt.Errorf("harness: warmup %d exceeds workload size %d", warmup, len(reqs))
	}
	app, store := spec.New()
	srv := server.New(server.Config{
		App:             app,
		Store:           store,
		Seed:            seed,
		CollectKarousos: mode == CollectKarousos || mode == CollectBoth,
		CollectOrochi:   mode == CollectOrochi || mode == CollectBoth,
	})
	if _, err := srv.Run(reqs[:warmup], concurrency); err != nil {
		return 0, fmt.Errorf("harness: warmup %s: %w", spec.Name, err)
	}
	start := time.Now()
	if _, err := srv.Run(reqs[warmup:], concurrency); err != nil {
		return 0, fmt.Errorf("harness: serve %s: %w", spec.Name, err)
	}
	return time.Since(start), nil
}

// VerifyKarousosUnbatched is the batching ablation: it audits with every
// request in its own control-flow group (singleton tags), disabling both
// grouped re-execution and SIMD-on-demand deduplication while keeping every
// check intact. Comparing it with VerifyKarousos isolates what batching buys
// (§4.1's central trade-off). Completeness is unaffected: singleton groups
// are trivially consistent, and unlogged reads replay through the version
// dictionary exactly as before.
func VerifyKarousosUnbatched(spec AppSpec, tr *trace.Trace, adv *advice.Advice) *VerifyResult {
	solo := adv.Clone()
	for rid := range solo.Tags {
		solo.Tags[rid] = "solo-" + string(rid)
	}
	return verify(spec, tr, solo, advice.ModeKarousos)
}
