// Command perfbench is the repository's end-to-end benchmark: it drives the
// real serving and audit pipeline (HTTP client, collectorhttp, group-commit
// epochlog, seal, auditd, verifier with its memo cache) on one workload,
// checks every verdict, and prints each metric by name and unit, with its
// sample count or base, followed by one JSON line. README.md lists the
// workloads and metrics.
//
//	perfbench --workload wiki-online --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// procs is the benchmark's GOMAXPROCS. On a shared virtual machine with two
// vCPUs, keeping both busy drew about 45% steal time: the parallel audit
// engine ran slower at GOMAXPROCS=2 than the sequential one at 1, and
// run-to-run spreads of wall-clock metrics grew fivefold. One processor
// measures the same code more steadily.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	name := flag.String("workload", "wiki-online", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: wiki-online, wiki-backlog, feeds-recurring)\n")
		os.Exit(1)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{w: *w, seed: *seed, seconds: *seconds, work: work, conns: min(2, runtime.NumCPU())}
	os.Exit(r.run(*traced == 1))
}

// run is main's body; its deferred clean-up also runs if the benchmark
// panics.
func (r *runner) run(traced bool) int {
	defer func() {
		os.RemoveAll(r.work)
		syncDir(filepath.Dir(r.work))
	}()
	return r.main(traced)
}

func (r *runner) main(traced bool) int {
	env := environment(r.work)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%t %s\n", r.w.name, r.seed, r.seconds, traced, env)
	var err error
	if traced {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fr := ratio{float64(r.failed), float64(r.attempted)}
	r.note("fail_ratio", "1", fr.Value(), "failed / attempted: %s", fr)
	for _, m := range append(r.metrics, r.notes...) {
		fmt.Printf("  %-40s %14s %-6s %s\n", m.Name, fmtValue(m.Value), m.Unit, m.Note)
	}
	if traced {
		out := filepath.Join(filepath.Dir(r.work), fmt.Sprintf("spans-%s-seed%d.json", r.w.name, r.seed))
		if err := r.tr.writeJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("  spans written to %s\n", out)
	}
	for _, e := range r.gateErrs {
		fmt.Printf("  GATE FAILED: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.gateErrs) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		res.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		return 2
	}
	return 0
}
