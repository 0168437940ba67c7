package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// Benchmark is one named testing.B body of the registry.
type Benchmark struct {
	Name string
	Fn   func(*testing.B)
	// Baseline marks the entries the committed BENCH_baseline.json gates.
	Baseline bool
}

// benchConc is the concurrency every serve-then-measure body runs at: a
// representative point of the figures' 1–60 sweep.
const benchConc = 30

// baseline names the entries karousos-bench's committed baseline gates:
// the Karousos serving and audit cost of Figures 6 and 7, the wiki audit's
// sequential-engine reference and components, and the record, shard-audit
// and memo-audit points of Figures 13–15.
var baseline = strings.Fields(`
	fig6a-motd-write-heavy-server-karousos fig6b-stacks-read-heavy-server-karousos fig6c-wiki-server-karousos
	fig7a-motd-write-heavy-verify-karousos fig7b-stacks-read-heavy-verify-karousos fig7c-wiki-verify-karousos
	fig7c-wiki-verify-karousos-workers-1
	audit-components/advice-decode audit-components/advice-encode audit-components/full-audit
	record/per-request-fsync-c32 record/group-commit-c32
	shard-audit/shards-1 shard-audit/shards-4 shard-audit/shards-8
	memo-audit/cold memo-audit/warm`)

// mixNames spell a mix inside a benchmark name.
var mixNames = map[workload.Mix]string{
	workload.ReadHeavy:  "read-heavy",
	workload.WriteHeavy: "write-heavy",
	workload.Mixed:      "mixed",
}

// Benchmarks is the registry: every figure point's testing.B bodies, named
// fig<N><panel>-<app>[-<mix>]-<measure>, then the non-figure entries.
// Workloads are n requests generated with seed 1; audits grade a run
// served with scheduler seed 42 at concurrency 30 (the worker sweep
// crosses DefaultConfig's levels).
func Benchmarks(n int) []Benchmark {
	var out []Benchmark
	for _, fig := range Figures() {
		for i, p := range figures[fig] {
			id := fmt.Sprintf("fig%d%c-%s", fig, 'a'+i, p.app)
			if p.app != "wiki" { // the wiki's mix is fixed (§6)
				id += "-" + mixNames[p.mix]
			}
			out = append(out, p.benchmarks(id, n)...)
		}
	}
	out = append(out,
		Benchmark{Name: "audit-components/advice-decode", Fn: adviceCodecBench(n, true)},
		Benchmark{Name: "audit-components/advice-encode", Fn: adviceCodecBench(n, false)},
		Benchmark{Name: "audit-components/full-audit", Fn: verifyBench("wiki", workload.Mixed, n, benchConc, "karousos", 0)},
		// Batching ablation: every request in its own group; the batched
		// counterpart is fig7c-wiki-verify-karousos.
		Benchmark{Name: "ablation/wiki-verify-unbatched", Fn: verifyBench("wiki", workload.Mixed, n, benchConc, "unbatched", 0)},
	)
	for _, workers := range []int{1, 4, 8} {
		out = append(out, Benchmark{Name: fmt.Sprintf("parallel-serve/wiki-workers-%d", workers), Fn: parallelServeBench(n, workers)})
	}
	for i := range out {
		out[i].Baseline = slices.Contains(baseline, out[i].Name)
	}
	return out
}

// benchmarks are p's testing.B bodies; id names the panel.
func (p point) benchmarks(id string, n int) []Benchmark {
	switch p.kind {
	case serverOverhead:
		return []Benchmark{
			{Name: id + "-server-unmodified", Fn: serveBench(p.app, p.mix, n, harness.CollectNone)},
			{Name: id + "-server-karousos", Fn: serveBench(p.app, p.mix, n, harness.CollectKarousos)},
		}
	case verification:
		return []Benchmark{
			{Name: id + "-verify-karousos", Fn: verifyBench(p.app, p.mix, n, benchConc, "karousos", 0)},
			{Name: id + "-verify-karousos-workers-1", Fn: verifyBench(p.app, p.mix, n, benchConc, "karousos", 1)},
			{Name: id + "-verify-orochi", Fn: verifyBench(p.app, p.mix, n, benchConc, "orochi", 0)},
			{Name: id + "-verify-sequential", Fn: verifyBench(p.app, p.mix, n, benchConc, "sequential", 0)},
		}
	case workerSweep:
		// Crossed with the concurrency axis: workers-1 is the sequential
		// engine, higher levels replay tag groups concurrently.
		var out []Benchmark
		for _, conc := range DefaultConfig().Conc {
			for _, w := range (Config{}).workerLevels() {
				out = append(out, Benchmark{
					Name: fmt.Sprintf("worker-sweep/%s-conc-%d-workers-%d", p.app, conc, w),
					Fn:   verifyBench(p.app, p.mix, n, conc, "karousos", w),
				})
			}
		}
		return out
	case adviceSize:
		return []Benchmark{{Name: id + "-advice-size", Fn: adviceSizeBench(p.app, p.mix, n)}}
	case recordThroughput:
		// One op is a fixed batch of events at concurrency 32.
		return []Benchmark{
			{Name: "record/per-request-fsync-c32", Fn: recordBench(false)},
			{Name: "record/group-commit-c32", Fn: recordBench(true)},
		}
	case shardScaling:
		var out []Benchmark
		for _, shards := range []int{1, 4, 8} {
			out = append(out, Benchmark{Name: fmt.Sprintf("shard-audit/shards-%d", shards), Fn: shardAuditBench(shards, n)})
		}
		return out
	}
	return []Benchmark{
		{Name: "memo-audit/cold", Fn: memoAuditBench(0, n)},
		{Name: "memo-audit/warm", Fn: memoAuditBench(256<<20, n)},
	}
}

// timed is a registry body: setup runs untimed (and may b.Fatal), then op
// is timed b.N times, its iteration index seeding any scheduler.
func timed(setup func(b *testing.B) (op func(i int) error)) func(*testing.B) {
	return func(b *testing.B) {
		op := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// each is a timed body without setup.
func each(op func(i int) error) func(*testing.B) {
	return timed(func(*testing.B) func(int) error { return op })
}

// serveBench times generating and serving n requests (n/5 of them
// warm-up) at the given collection mode.
func serveBench(app string, mix workload.Mix, n int, mode harness.Collect) func(*testing.B) {
	return each(func(i int) error {
		spec, reqs, err := load(app, mix, n, 1)
		if err == nil {
			_, err = harness.ServeWarm(spec, reqs, n/5, benchConc, int64(i), mode)
		}
		return err
	})
}

// served is a body's untimed run: n requests served at conc with
// scheduler seed 42.
func served(b *testing.B, app string, mix workload.Mix, n, conc int, mode harness.Collect) (harness.AppSpec, *harness.ServeResult) {
	spec, run, err := serve(app, mix, n, 1, conc, 42, mode)
	if err != nil {
		b.Fatal(err)
	}
	return spec, run
}

// verifyBench times one verifier's turnaround (see audit) over a run that
// collected only the advice the verifier reads; trace and advice are the
// same in every collection mode.
func verifyBench(app string, mix workload.Mix, n, conc int, verifier string, workers int) func(*testing.B) {
	return timed(func(b *testing.B) func(int) error {
		mode := harness.CollectKarousos
		switch verifier {
		case "orochi":
			mode = harness.CollectOrochi
		case "sequential":
			mode = harness.CollectNone
		}
		spec, run := served(b, app, mix, n, conc, mode)
		return func(int) error { return audit(verifier, spec, run, workers).Err }
	})
}

// adviceSizeBench reports both advices' sizes as custom metrics; the op is
// the size computation, the unit of shipping cost.
func adviceSizeBench(app string, mix workload.Mix, n int) func(*testing.B) {
	return timed(func(b *testing.B) func(int) error {
		_, run := served(b, app, mix, n, benchConc, harness.CollectBoth)
		return func(int) error {
			k, o := float64(run.Karousos.Size()), float64(run.Orochi.Size())
			b.ReportMetric(k, "karousos-bytes")
			b.ReportMetric(o, "orochi-bytes")
			b.ReportMetric(k/o, "size-ratio")
			return nil
		}
	})
}

// adviceCodecBench times decoding (or encoding) the wiki run's advice.
func adviceCodecBench(n int, decode bool) func(*testing.B) {
	return timed(func(b *testing.B) func(int) error {
		_, run := served(b, "wiki", workload.Mixed, n, benchConc, harness.CollectKarousos)
		wire := run.Karousos.MarshalBinary()
		b.SetBytes(int64(len(wire)))
		return func(int) error {
			if !decode {
				_ = run.Karousos.MarshalBinary()
				return nil
			}
			_, err := advice.UnmarshalBinary(wire)
			return err
		}
	})
}

// parallelServeBench times generating and serving the wiki workload on
// the multi-threaded dispatch runtime with the given worker count.
func parallelServeBench(n, workers int) func(*testing.B) {
	return each(func(i int) error {
		spec, reqs, err := load("wiki", workload.Mixed, n, 1)
		if err != nil {
			return err
		}
		app, store := spec.New()
		srv := server.New(server.Config{App: app, Store: store, Seed: int64(i), Workers: workers, CollectKarousos: true})
		_, err = srv.Run(reqs, benchConc)
		return err
	})
}

// recordBench times one fixed batch of 2048 durable epoch-log appends at
// concurrency 32 under one commit discipline.
func recordBench(group bool) func(*testing.B) {
	return each(func(int) error {
		_, err := RecordThroughput(group, 32, 2048)
		return err
	})
}

// logBench builds a sealed log under a fresh directory untimed, then
// times audit grading it from scratch.
func logBench(build, audit func(dir string) error) func(*testing.B) {
	return timed(func(b *testing.B) func(int) error {
		dir, err := os.MkdirTemp("", "karousos-bench-")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { os.RemoveAll(dir) })
		if err := build(dir); err != nil {
			b.Fatal(err)
		}
		return func(int) error { return audit(dir) }
	})
}

// shardAuditBench times a shard-parallel audit (one lane per shard, audit
// workers 1) of an n-request wiki topology.
func shardAuditBench(shards, n int) func(*testing.B) {
	return logBench(func(root string) error { return BuildShardTopology(root, shards, n, 1) },
		func(root string) error {
			_, res, err := auditShardTopology(root, shards)
			if err == nil && !res.Accepted() {
				err = fmt.Errorf("honest topology rejected: [%s] %s", res.Merge.Code, res.Merge.Reason)
			}
			return err
		})
}

// memoAuditBench times a fresh auditor grading an 8-epoch pure-recurring
// feeds log, with the memo cache off (memoBytes 0) or carried warm across
// the pass's epochs.
func memoAuditBench(memoBytes, n int) func(*testing.B) {
	const epochs = 8
	return logBench(func(dir string) error { return BuildMemoLog(dir, epochs, n/epochs, 1.0, 1) },
		func(dir string) error {
			_, _, err := auditMemoLog(dir, epochs, memoBytes)
			return err
		})
}
