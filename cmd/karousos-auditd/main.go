// karousos-auditd is the continuous-audit pipeline's command-line front:
//
//	karousos-auditd serve -app wiki -dir epochs -addr :8080 -epoch-requests 50
//	    serves the application as an HTTP endpoint, recording the trusted
//	    trace into a durable epoch log and sealing epochs as thresholds
//	    are crossed;
//
//	karousos-auditd audit -dir epochs [-checkpoint cp.json] [-follow]
//	    audits every sealed epoch past the checkpoint in order, carrying
//	    dictionary state across epochs; -follow keeps tailing the log;
//
//	karousos-auditd audit -shards 4 -dir shards [-lanes 2]
//	    audits a sharded topology (as written by karousos-gateway): one
//	    audit lane per shard-NN epoch log under the root, run
//	    concurrently up to -lanes, joined by the cross-shard merge check
//	    into one combined verdict; -shard-dirs overrides the directory
//	    layout;
//
//	karousos-auditd status -dir epochs [-checkpoint cp.json]
//	    prints the log's sealed manifests and the auditor's cursor;
//
//	karousos-auditd pipeline -app wiki -n 200 -epoch-requests 50 -dir epochs
//	    runs the whole loop in one process — serve over loopback HTTP,
//	    seal mid-workload, audit concurrently — and exits by verdict;
//
//	karousos-auditd chaos -app motd -seed 11
//	    runs the fault-injection acceptance scenario (collector crash,
//	    transient EIO on auditor reads, one-epoch advice outage) and
//	    exits 0 only if every robustness invariant held; -shards N runs
//	    the sharded acceptance scenario instead (one shard killed and
//	    restarted mid-workload behind a gateway).
//
// Exit codes are scriptable like karousos-audit's: 0 every audited epoch
// accepted (chaos: every invariant held), 2 an epoch rejected or an
// invariant violated (the epoch and reason code are printed),
// 1 infrastructure error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit so tests drive the CLI
// in-process and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "serve":
		return serveCmd(args[1:], stdout, stderr)
	case "audit":
		return auditCmd(args[1:], stdout, stderr)
	case "status":
		return statusCmd(args[1:], stdout, stderr)
	case "pipeline":
		return pipelineCmd(args[1:], stdout, stderr)
	case "chaos":
		return chaosCmd(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: karousos-auditd serve|audit|status|pipeline|chaos [flags]

  serve     serve an app over HTTP, recording a durable epoch log
  audit     audit sealed epochs in order; exits 0 ACCEPT, 2 REJECT, 1 error
            (-shards N audits a sharded topology root shard-parallel)
  status    print the epoch log's manifests and the audit cursor
  pipeline  serve + seal + audit in one process (exit code is the verdict)
  chaos     run the fault-injection acceptance scenario; exits 0 if every
            robustness invariant held`)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "karousos-auditd:", err)
	return 1
}

func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application: motd, stacks, wiki, feeds")
	dir := fs.String("dir", "karousos-epochs", "epoch log directory")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	epochReqs := fs.Int("epoch-requests", 50, "seal after this many requests (0 = manual/seal endpoint only)")
	maxAge := fs.Duration("epoch-max-age", 0, "seal non-empty epochs older than this (0 = disabled)")
	seed := fs.Int64("seed", 42, "scheduler seed")
	drain := fs.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	commit := fs.String("commit", "group", "trace commit mode: group (one fsync per batch), per-request (one fsync per append)")
	maxInflight := fs.Int("max-inflight", 0, "admission window: max requests between admit and durable commit (0 = default 256)")
	maxQueuedBytes := fs.Int64("max-queued-bytes", 0, "admission ceiling on queued request bytes (0 = default 32 MiB)")
	retryAfter := fs.Duration("retry-after", 0, "base Retry-After hint on 429 responses (0 = default 1s)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline through serve and commit (0 = none)")
	maxAuditLag := fs.Int("max-audit-lag", 0, "tighten admission and fail /readyz when the auditor falls this many epochs behind (0 = default when a checkpoint is followed)")
	auditCkpt := fs.String("audit-checkpoint", "", "auditor checkpoint file to follow for lag-based backpressure (\"\" = none)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	spec, err := harness.SpecByName(*app)
	if err != nil {
		return fail(stderr, err)
	}
	var progress func() (uint64, bool)
	var memoStats func() (collectorhttp.AuditMemoState, bool)
	if *auditCkpt != "" {
		// The auditor is a separate process; its durable checkpoint is the
		// one signal both sides already agree on, so lag-based backpressure
		// and memo telemetry read it instead of inventing an RPC.
		progress = func() (uint64, bool) { return auditd.ReadCheckpointProgress(nil, *auditCkpt) }
		memoStats = func() (collectorhttp.AuditMemoState, bool) {
			mc, ok := auditd.ReadCheckpointMemo(nil, *auditCkpt)
			return collectorhttp.AuditMemoState{Hits: mc.Hits, Misses: mc.Misses, Evictions: mc.Evictions}, ok
		}
	}
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:           spec,
		Dir:            *dir,
		EpochRequests:  *epochReqs,
		EpochMaxAge:    *maxAge,
		Seed:           *seed,
		Limits:         verifier.DefaultLimits(),
		Commit:         collectorhttp.CommitMode(*commit),
		MaxInflight:    *maxInflight,
		MaxQueuedBytes: *maxQueuedBytes,
		RetryAfter:     *retryAfter,
		RequestTimeout: *reqTimeout,
		MaxAuditLag:    *maxAuditLag,
		AuditProgress:  progress,
		AuditMemo:      memoStats,
	})
	if err != nil {
		return fail(stderr, err)
	}
	// Header/read/idle timeouts keep a stalled or malicious client from
	// pinning a connection (and its goroutine) forever; no WriteTimeout
	// because audited handlers are already bounded by the verifier limits.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           col.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Drain in-flight requests so their trace events land in the log,
		// then force-close whatever is still hanging past the grace period.
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			hs.Close()
		}
	}()
	fmt.Fprintf(stdout, "serving %s on %s, epoch log %s (seal every %d requests)\n",
		*app, *addr, *dir, *epochReqs)
	err = hs.ListenAndServe()
	// Close seals the open epoch — a SIGTERM must not strand recorded
	// requests in an unsealed (hence unauditable-by-absence) epoch.
	if closeErr := col.Close(); closeErr != nil {
		return fail(stderr, closeErr)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "sealed %d epochs, served %d requests\n",
		col.Status().SealedEpochs, col.Status().Served)
	return 0
}

func auditCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "karousos-epochs", "epoch log directory")
	cp := fs.String("checkpoint", "", "resume file; written after every accepted epoch (sharded mode: a directory holding one resume file per shard)")
	follow := fs.Bool("follow", false, "keep tailing the log until interrupted")
	deadline := fs.Duration("deadline", verifier.DefaultLimits().Deadline, "wall-clock budget per epoch audit (0 = unbounded)")
	reasonCode := fs.Bool("reason-code", false, "on rejection, print only the bare reason code on stdout")
	workers := fs.Int("workers", 0, "audit parallelism per epoch: 0 = GOMAXPROCS, 1 = sequential (verdict identical at every setting)")
	shards := fs.Int("shards", 0, "audit a sharded topology: -dir is its root and this must match its shard map (0 = single log)")
	shardDirs := fs.String("shard-dirs", "", "comma-separated per-shard epoch-log directories, indexed by shard (default: shard-NN under -dir)")
	lanes := fs.Int("lanes", 0, "concurrent audit lanes in sharded mode (0 = one per shard; the verdict is identical at every setting)")
	memoOn := fs.Bool("memo", false, "memoize re-execution across epochs (content-addressed tag-group cache; verdict identical on or off)")
	memoMax := fs.Int("memo-max-bytes", 256<<20, "memo cache byte budget when -memo is set (sharded mode: per lane)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	lim := verifier.DefaultLimits()
	lim.Deadline = *deadline
	memoBytes := memoBudget(*memoOn, *memoMax)
	if *shards > 0 || *shardDirs != "" {
		return shardedAuditCmd(*dir, *shardDirs, *cp, *shards, *lanes, *workers, memoBytes, *follow, *reasonCode, lim, stdout, stderr)
	}
	aud, err := auditd.New(auditd.Config{Dir: *dir, Checkpoint: *cp, Limits: lim, AuditWorkers: *workers, MemoMaxBytes: memoBytes})
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *follow {
		err = aud.Run(ctx)
	} else {
		_, err = aud.RunOnce(ctx)
	}
	st := aud.Status()
	if err != nil {
		var rej *auditd.Reject
		if errors.As(err, &rej) {
			if *reasonCode {
				fmt.Fprintln(stdout, rej.Code)
			}
			fmt.Fprintf(stderr, "AUDIT REJECTED epoch %d [%s]: %s\n", rej.Epoch, rej.Code, rej.Reason)
			return 2
		}
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "AUDIT ACCEPTED through epoch %d: %d epochs this run, %v total audit time", st.LastAccepted, st.Accepted, st.TotalAudit)
	if memoBytes > 0 {
		fmt.Fprintf(stdout, " (memo: %d hits, %d misses, %d evictions)",
			st.Stats.MemoHits, st.Stats.MemoMisses, st.Stats.MemoEvictions)
	}
	fmt.Fprintln(stdout)
	return 0
}

// memoBudget maps the -memo/-memo-max-bytes flag pair onto the Config
// convention, where 0 disables memoization entirely.
func memoBudget(on bool, maxBytes int) int {
	if !on {
		return 0
	}
	if maxBytes <= 0 {
		return 1 << 40 // effectively unbounded
	}
	return maxBytes
}

// shardedAuditCmd is the audit subcommand's shard-parallel path: one
// audit lane per shard log, run concurrently up to the lane budget, then
// the cross-shard merge check. The combined verdict is the exit code.
func shardedAuditCmd(root, shardDirs, cp string, shards, lanes, workers, memoBytes int, follow, reasonCode bool, lim verifier.Limits, stdout, stderr io.Writer) int {
	cfg := auditd.ShardedConfig{
		Root:          root,
		Lanes:         lanes,
		CheckpointDir: cp,
		Limits:        lim,
		AuditWorkers:  workers,
		MemoMaxBytes:  memoBytes,
	}
	if shardDirs != "" {
		cfg.Dirs = strings.Split(shardDirs, ",")
	}
	if shards > 0 {
		// -shards is a sanity pin, not configuration: the topology's own map
		// file is authoritative, and a mismatch means the operator is
		// pointing at the wrong root.
		if m, err := shard.ReadMap(root); err == nil && m.Shards != shards {
			return fail(stderr, fmt.Errorf("-shards %d, but the map under %s has %d shards", shards, root, m.Shards))
		}
	}
	sh, err := auditd.NewSharded(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var res auditd.ShardedResult
	if follow {
		if err := sh.Run(ctx); err != nil {
			return fail(stderr, err)
		}
		res = sh.Result()
	} else {
		if res, err = sh.Audit(ctx); err != nil {
			return fail(stderr, err)
		}
	}
	for _, rep := range res.Shards {
		verdict := "accepted"
		if rep.Code != "" {
			verdict = fmt.Sprintf("[%s] %s", rep.Code, rep.Reason)
		}
		fmt.Fprintf(stdout, "shard %d (%s): %d epochs audited, %s\n", rep.Shard, rep.Dir, rep.Status.LastProcessed, verdict)
	}
	if !res.Accepted() {
		if reasonCode {
			fmt.Fprintln(stdout, res.Merge.Code)
		}
		fmt.Fprintf(stderr, "SHARDED AUDIT REJECTED [%s]: %s\n", res.Merge.Code, res.Merge.Reason)
		for _, c := range res.Merge.Conflicts {
			fmt.Fprintf(stderr, "  conflict: key %q claimed by shards %v\n", c.Key, c.Shards)
		}
		return 2
	}
	fmt.Fprintf(stdout, "SHARDED AUDIT ACCEPTED: %d shards, %d handlers re-run\n",
		len(res.Shards), res.Stats.HandlersRerun)
	return 0
}

func statusCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "karousos-epochs", "epoch log directory")
	cp := fs.String("checkpoint", "", "auditor resume file to report against")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	sealed, err := epochlog.ListSealed(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	out := map[string]any{"dir": *dir, "sealedEpochs": len(sealed), "manifests": sealed}
	if meta, err := collectorhttp.ReadMeta(*dir); err == nil {
		out["app"], out["mode"] = meta.App, meta.Mode
	}
	if *cp != "" {
		if blob, err := os.ReadFile(*cp); err == nil {
			var c struct {
				LastAccepted uint64 `json:"lastAccepted"`
			}
			if json.Unmarshal(blob, &c) == nil {
				out["lastAccepted"] = c.LastAccepted
				out["pending"] = len(sealed) - int(c.LastAccepted)
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func pipelineCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application: motd, stacks, wiki, feeds")
	n := fs.Int("n", 200, "number of requests to drive")
	epochReqs := fs.Int("epoch-requests", 50, "seal after this many requests")
	dir := fs.String("dir", "", "epoch log directory (default: a fresh temp dir)")
	seed := fs.Int64("seed", 42, "workload and scheduler seed")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall pipeline budget")
	workers := fs.Int("workers", 0, "audit parallelism per epoch: 0 = GOMAXPROCS, 1 = sequential (verdict identical at every setting)")
	memoOn := fs.Bool("memo", false, "memoize re-execution across epochs (verdict identical on or off)")
	memoMax := fs.Int("memo-max-bytes", 256<<20, "memo cache byte budget when -memo is set")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	spec, err := harness.SpecByName(*app)
	if err != nil {
		return fail(stderr, err)
	}
	reqs, err := workload.For(*app, workload.Mixed, *n, *seed)
	if err != nil {
		return fail(stderr, err)
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "karousos-epochs-")
		if err != nil {
			return fail(stderr, err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := auditd.RunPipeline(ctx, spec, reqs, auditd.PipelineOptions{
		Dir:           *dir,
		EpochRequests: *epochReqs,
		Seed:          *seed,
		Limits:        verifier.DefaultLimits(),
		AuditWorkers:  *workers,
		MemoMaxBytes:  memoBudget(*memoOn, *memoMax),
	})
	if err != nil {
		var rej *auditd.Reject
		if errors.As(err, &rej) {
			fmt.Fprintf(stderr, "PIPELINE REJECTED epoch %d [%s]: %s\n", rej.Epoch, rej.Code, rej.Reason)
			return 2
		}
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "PIPELINE ACCEPTED: served %d requests over %s, sealed %d epochs (%d accepted, %d unauditable), %d auditor restarts, audited in %v\n",
		res.Served, res.Addr, res.Sealed, res.Accepted, res.Unauditable, res.Restarts, res.Status.TotalAudit)
	return 0
}

func chaosCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "motd", "application: motd, stacks, wiki, feeds")
	seed := fs.Int64("seed", 11, "fault-schedule and workload seed")
	dir := fs.String("dir", "", "scenario scratch directory (default: a fresh temp dir)")
	file := fs.String("scenario", "", "JSON scenario file (default: the built-in acceptance scenario)")
	shards := fs.Int("shards", 0, "run the sharded acceptance scenario over this many shards (0 = classic single-log scenario)")
	verbose := fs.Bool("v", false, "print the full result as JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *shards > 0 {
		return shardChaosCmd(*shards, *seed, *dir, *verbose, stdout, stderr)
	}
	var sc chaos.Scenario
	if *file != "" {
		// A scripted scenario replaces the built-in one wholesale — its
		// absent fields mean "none", not "inherit the acceptance faults".
		blob, err := os.ReadFile(*file)
		if err != nil {
			return fail(stderr, err)
		}
		if err := json.Unmarshal(blob, &sc); err != nil {
			return fail(stderr, fmt.Errorf("scenario %s: %w", *file, err))
		}
	} else {
		sc = chaos.AcceptanceScenario(*app, *seed)
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "karousos-chaos-")
		if err != nil {
			return fail(stderr, err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	res, err := chaos.Run(*dir, sc)
	if err != nil {
		return fail(stderr, err)
	}
	if *verbose {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return fail(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "CHAOS %s seed=%d: served=%d refused=%d sealed=%d accepted=%d unauditable=%d rejected=%d auditor-restarts=%d collector-crashes=%d\n",
		sc.App, sc.Seed, res.Served, res.Refused, res.Sealed, res.Accepted, res.Unauditable, res.Rejected, res.AuditorRestarts, res.CollectorCrashes)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(stderr, "CHAOS INVARIANT VIOLATED:", v)
		}
		return 2
	}
	if res.Rejected > 0 {
		fmt.Fprintln(stderr, "CHAOS FALSE REJECT: an infrastructure-faulted honest run was rejected")
		return 2
	}
	fmt.Fprintln(stdout, "CHAOS OK: all invariants held")
	return 0
}

// shardChaosCmd runs the sharded acceptance scenario: a gateway-fronted
// wiki topology with one shard killed and restarted mid-workload, then
// the lane-count differential audit.
func shardChaosCmd(shards int, seed int64, dir string, verbose bool, stdout, stderr io.Writer) int {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "karousos-shard-chaos-")
		if err != nil {
			return fail(stderr, err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	sc := chaos.ShardAcceptanceScenario(shards, seed)
	res, err := chaos.RunShardChaos(dir, sc)
	if err != nil {
		return fail(stderr, err)
	}
	if verbose {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return fail(stderr, err)
		}
	}
	merge := "accepted"
	if res.Merge.Code != "" {
		merge = fmt.Sprintf("[%s] %s", res.Merge.Code, res.Merge.Reason)
	}
	fmt.Fprintf(stdout, "SHARD CHAOS %s shards=%d seed=%d: served=%d refused=%d accepted=%d unauditable=%d rejected=%d merge=%s\n",
		sc.App, sc.Shards, sc.Seed, res.Served, res.Refused, res.Accepted, res.Unauditable, res.Rejected, merge)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(stderr, "SHARD CHAOS INVARIANT VIOLATED:", v)
		}
		return 2
	}
	fmt.Fprintln(stdout, "SHARD CHAOS OK: all invariants held")
	return 0
}
