// Package experiments regenerates the paper's evaluation (§6, Figures 6–12)
// and this module's own Figures 13–15: each figure maps to panels of rows —
// one row per concurrency level — that report medians over several trials,
// exactly the quantities the paper plots. One table of figure points drives
// both the panels cmd/karousos-bench prints and the testing.B registry that
// bench_test.go and the committed baseline run (Benchmarks).
package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// Config holds the sweep parameters. The paper's defaults are 600 requests,
// 120 of which warm the server-overhead experiments, swept over 1–60
// concurrent requests.
type Config struct {
	Requests int
	Warmup   int
	Trials   int
	Conc     []int
	Seed     int64
	// Workers are the audit parallelism levels the worker-sweep panel
	// measures; empty means {1, 2, 4, GOMAXPROCS} deduplicated.
	Workers []int
}

// DefaultConfig matches the paper's §6 setup.
func DefaultConfig() Config {
	return Config{Requests: 600, Warmup: 120, Trials: 3, Conc: []int{1, 15, 30, 45, 60}, Seed: 42}
}

// workerLevels resolves cfg.Workers, defaulting to a 1/2/4/GOMAXPROCS sweep
// with duplicates collapsed (on a 4-core machine: 1, 2, 4).
func (cfg Config) workerLevels() []int {
	if len(cfg.Workers) > 0 {
		return cfg.Workers
	}
	levels := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(levels)
	return slices.Compact(levels)
}

// Panel is one plot of a figure, rendered as a table.
type Panel struct {
	Title  string
	Header []string
	Rows   [][]string
}

// load resolves app's spec and n requests of its paper workload from the
// harness and workload tables.
func load(app string, mix workload.Mix, n int, seed int64) (harness.AppSpec, []server.Request, error) {
	spec, err := harness.SpecByName(app)
	if err != nil {
		return harness.AppSpec{}, nil, err
	}
	reqs, err := workload.For(app, mix, n, seed)
	return spec, reqs, err
}

// serve generates n requests of app's workload from wseed and serves them
// at conc with the given scheduler seed.
func serve(app string, mix workload.Mix, n int, wseed int64, conc int, seed int64, mode harness.Collect) (harness.AppSpec, *harness.ServeResult, error) {
	spec, reqs, err := load(app, mix, n, wseed)
	if err != nil {
		return spec, nil, err
	}
	run, err := harness.Serve(spec, reqs, conc, seed, mode)
	return spec, run, err
}

// audit grades a served run with one verifier: "karousos" at the given
// audit workers (0 = GOMAXPROCS, 1 = the sequential engine), "unbatched"
// (Karousos with singleton groups), "orochi", or "sequential" re-execution.
func audit(verifier string, spec harness.AppSpec, run *harness.ServeResult, workers int) *harness.VerifyResult {
	switch verifier {
	case "unbatched":
		return harness.VerifyKarousosUnbatched(spec, run.Trace, run.Karousos)
	case "orochi":
		return harness.VerifyOrochi(spec, run.Trace, run.Orochi)
	case "sequential":
		r := harness.VerifySequential(spec, run.Trace)
		return &harness.VerifyResult{Elapsed: r.Elapsed, Err: r.Err}
	}
	return harness.VerifyWith(spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: workers})
}

func median[T cmp.Ordered](xs []T) T {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func fdur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

// ServerOverheadPanel reproduces a Figure 6-style panel: processing time of
// the measured requests for the unmodified server and the Karousos server,
// and the overhead factor (§6.1).
func ServerOverheadPanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("server processing time — %s (%s), %d requests after %d warm-up", app, mix, cfg.Requests-cfg.Warmup, cfg.Warmup),
		Header: []string{"conc", "unmodified", "karousos", "overhead"},
	}
	for _, conc := range cfg.Conc {
		var unmod, kar []time.Duration
		for tr := 0; tr < cfg.Trials; tr++ {
			seed := cfg.Seed + int64(tr)
			spec, reqs, err := load(app, mix, cfg.Requests, cfg.Seed)
			must(err)
			du, err := harness.ServeWarm(spec, reqs, cfg.Warmup, conc, seed, harness.CollectNone)
			must(err)
			dk, err := harness.ServeWarm(spec, reqs, cfg.Warmup, conc, seed, harness.CollectKarousos)
			must(err)
			unmod = append(unmod, du)
			kar = append(kar, dk)
		}
		mu, mk := median(unmod), median(kar)
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc), fdur(mu), fdur(mk), fmt.Sprintf("%.2fx", float64(mk)/float64(mu)),
		})
	}
	return p
}

// VerificationPanel reproduces a Figure 7-style panel: total verification
// time for the Karousos verifier, the Orochi-JS verifier, and the sequential
// re-executor (§6.2).
func VerificationPanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("verification time — %s (%s), %d requests", app, mix, cfg.Requests),
		Header: []string{"conc", "karousos", "orochi-js", "sequential", "kar-groups", "oro-groups"},
	}
	for _, conc := range cfg.Conc {
		var ds [3][]time.Duration
		var groups [3]int
		for tr := 0; tr < cfg.Trials; tr++ {
			spec, run, err := serve(app, mix, cfg.Requests, cfg.Seed, conc, cfg.Seed+int64(tr), harness.CollectBoth)
			must(err)
			for i, v := range []string{"karousos", "orochi", "sequential"} {
				r := audit(v, spec, run, 0)
				must(r.Err)
				ds[i] = append(ds[i], r.Elapsed)
				groups[i] = r.Stats.Groups
			}
		}
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc), fdur(median(ds[0])), fdur(median(ds[1])), fdur(median(ds[2])),
			fmt.Sprint(groups[0]), fmt.Sprint(groups[1]),
		})
	}
	return p
}

// WorkerSweepPanel measures the Karousos verifier's multi-core scaling: the
// same (trace, advice) audited at each worker level, with the speedup over
// the sequential engine. The verdict and Stats are identical at every level
// (DESIGN.md §13); the sweep asserts that by comparing Stats across levels.
func WorkerSweepPanel(app string, mix workload.Mix, cfg Config) Panel {
	conc := 30
	if len(cfg.Conc) > 0 {
		conc = cfg.Conc[len(cfg.Conc)-1]
	}
	p := Panel{
		Title:  fmt.Sprintf("karousos audit worker sweep — %s (%s), %d requests, conc %d", app, mix, cfg.Requests, conc),
		Header: []string{"workers", "karousos", "speedup", "groups"},
	}
	spec, run, err := serve(app, mix, cfg.Requests, cfg.Seed, conc, cfg.Seed, harness.CollectKarousos)
	must(err)
	var base time.Duration
	var baseStats *harness.VerifyResult
	for _, w := range cfg.workerLevels() {
		var ds []time.Duration
		var vr *harness.VerifyResult
		for tr := 0; tr < cfg.Trials; tr++ {
			vr = audit("karousos", spec, run, w)
			must(vr.Err)
			ds = append(ds, vr.Elapsed)
		}
		m := median(ds)
		if base == 0 {
			base = m
			baseStats = vr
		}
		if vr.Stats != baseStats.Stats {
			panic(fmt.Sprintf("experiments: worker sweep diverged at %d workers: %+v vs %+v", w, vr.Stats, baseStats.Stats))
		}
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(w), fdur(m), fmt.Sprintf("%.2fx", float64(base)/float64(m)), fmt.Sprint(vr.Stats.Groups),
		})
	}
	return p
}

// AdviceSizePanel reproduces a Figure 8-style panel: the size of the advice
// the server ships to the verifier, Karousos vs Orochi-JS (§6.3).
func AdviceSizePanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("advice size — %s (%s), %d requests", app, mix, cfg.Requests),
		Header: []string{"conc", "karousos", "orochi-js", "ratio"},
	}
	for _, conc := range cfg.Conc {
		_, run, err := serve(app, mix, cfg.Requests, cfg.Seed, conc, cfg.Seed, harness.CollectBoth)
		must(err)
		k, o := run.Karousos.Size(), run.Orochi.Size()
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc),
			fmt.Sprintf("%.1f KiB", float64(k)/1024),
			fmt.Sprintf("%.1f KiB", float64(o)/1024),
			fmt.Sprintf("%.2f", float64(k)/float64(o)),
		})
	}
	return p
}

// kind is what one figure panel measures.
type kind int

const (
	serverOverhead   kind = iota // Figure 6 and the (a) panels
	verification                 // Figure 7 and the (b) panels
	workerSweep                  // Figure 7's multi-core scaling panel
	adviceSize                   // Figure 8 and the (c) panels
	recordThroughput             // Figure 13
	shardScaling                 // Figure 14
	memoAudit                    // Figure 15
)

// point is one panel of one figure: an application and mix measured one
// way (the non-paper figures fix their own workload).
type point struct {
	kind kind
	app  string
	mix  workload.Mix
}

// figures is the evaluation grid. Figure renders it into panels and
// Benchmarks into testing.B bodies, so adding a figure point is one row.
//
//	Fig 6:  server overheads — MOTD 90% writes, stacks 90% reads, wiki
//	Fig 7:  verification time — same three workloads, plus the audit
//	        worker sweep
//	Fig 8:  advice size — MOTD 90% writes, wiki (stacks omitted, §6.3)
//	Fig 9:  MOTD mixed (server / verification / advice)
//	Fig 10: MOTD 90% reads
//	Fig 11: stacks mixed
//	Fig 12: stacks 90% writes
//	Fig 13: sustained record throughput — group commit vs per-request fsync
//	        (not from the paper; the serving-path load story of DESIGN.md §14)
//	Fig 14: shard scaling — audit throughput of the shard-parallel auditd
//	        over 1/2/4/8-shard topologies (not from the paper; the sharded
//	        audit plane of DESIGN.md §15)
//	Fig 15: memo cold vs warm — the steady-state recurring workload audited
//	        with the cross-epoch re-execution memo cache off and on (not
//	        from the paper; DESIGN.md §18)
var figures = map[int][]point{
	6: {
		{serverOverhead, "motd", workload.WriteHeavy},
		{serverOverhead, "stacks", workload.ReadHeavy},
		{serverOverhead, "wiki", workload.Mixed},
	},
	7: {
		{verification, "motd", workload.WriteHeavy},
		{verification, "stacks", workload.ReadHeavy},
		{verification, "wiki", workload.Mixed},
		{workerSweep, "wiki", workload.Mixed},
	},
	8: {
		{adviceSize, "motd", workload.WriteHeavy},
		{adviceSize, "wiki", workload.Mixed},
	},
	9:  appFigure("motd", workload.Mixed),
	10: appFigure("motd", workload.ReadHeavy),
	11: appFigure("stacks", workload.Mixed),
	12: appFigure("stacks", workload.WriteHeavy),
	13: {{kind: recordThroughput}},
	14: {{kind: shardScaling, app: "wiki"}},
	15: {{kind: memoAudit, app: "feeds"}},
}

// appFigure is the Appendix B layout: one application and mix across the
// three panel kinds (a: server overhead, b: verification, c: advice size).
func appFigure(app string, mix workload.Mix) []point {
	return []point{{serverOverhead, app, mix}, {verification, app, mix}, {adviceSize, app, mix}}
}

// Figure returns the panels of one numbered figure.
func Figure(n int, cfg Config) []Panel {
	points, ok := figures[n]
	if !ok {
		panic(fmt.Sprintf("experiments: no figure %d", n))
	}
	panels := make([]Panel, len(points))
	for i, p := range points {
		panels[i] = p.panel(cfg)
	}
	return panels
}

func (p point) panel(cfg Config) Panel {
	switch p.kind {
	case serverOverhead:
		return ServerOverheadPanel(p.app, p.mix, cfg)
	case verification:
		return VerificationPanel(p.app, p.mix, cfg)
	case workerSweep:
		return WorkerSweepPanel(p.app, p.mix, cfg)
	case adviceSize:
		return AdviceSizePanel(p.app, p.mix, cfg)
	case recordThroughput:
		return RecordThroughputPanel(cfg)
	case shardScaling:
		return ShardScalingPanel(cfg)
	}
	return MemoAuditPanel(cfg)
}

// Figures lists the figure numbers this package can regenerate, in order.
func Figures() []int {
	ns := make([]int, 0, len(figures))
	for n := range figures {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

func must(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}
