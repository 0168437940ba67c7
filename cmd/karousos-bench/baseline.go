// Baseline mode: karousos-bench can emit a committed performance baseline
// (BENCH_baseline.json) and later check the working tree against it, so CI
// catches ns/op regressions without running the full figure sweeps.
//
//	karousos-bench -baseline-out BENCH_baseline.json     # regenerate
//	karousos-bench -baseline-check BENCH_baseline.json   # gate (CI)
//
// The baseline deliberately records only scale-free quantities (ns/op,
// allocs/op) plus the config that produced them; no timestamps or host
// names, so regenerating on the same machine is a stable diff.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"karousos.dev/karousos/internal/experiments"
)

// baselineRequests is smaller than the figure sweeps' default so the CI
// bench-smoke job stays cheap; the shapes (and therefore regressions in
// them) are preserved.
const baselineRequests = 120

type baselineResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type baselineFile struct {
	Config struct {
		Requests   int `json:"requests"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"config"`
	Results map[string]baselineResult `json:"results"`
}

// baselineBenches are the registry entries the baseline gates.
func baselineBenches() []experiments.Benchmark {
	var out []experiments.Benchmark
	for _, bm := range experiments.Benchmarks(baselineRequests) {
		if bm.Baseline {
			out = append(out, bm)
		}
	}
	return out
}

func measureBaseline(bb experiments.Benchmark) (baselineResult, error) {
	r := testing.Benchmark(bb.Fn)
	if r.N == 0 {
		return baselineResult{}, fmt.Errorf("benchmark %s failed", bb.Name)
	}
	return baselineResult{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

func readBaseline(path string) (baselineFile, error) {
	var f baselineFile
	data, err := os.ReadFile(path)
	if err == nil {
		if err = json.Unmarshal(data, &f); err != nil {
			err = fmt.Errorf("parse %s: %w", path, err)
		}
	}
	return f, err
}

// writeBaseline measures every gated benchmark into a fresh baseline at
// path. With merge it measures only those the existing file is missing,
// leaving every other entry byte-identical: how a change that adds
// benchmarks lands their numbers without re-measuring (and so silently
// re-centering) everyone else's.
func writeBaseline(path string, merge bool) error {
	var f baselineFile
	f.Config.Requests = baselineRequests
	f.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if merge {
		var err error
		if f, err = readBaseline(path); err != nil {
			return err
		}
	}
	if f.Results == nil {
		f.Results = make(map[string]baselineResult)
	}
	added := 0
	for _, bb := range baselineBenches() {
		if _, ok := f.Results[bb.Name]; ok {
			continue
		}
		res, err := measureBaseline(bb)
		if err != nil {
			return err
		}
		f.Results[bb.Name] = res
		added++
		fmt.Printf("%-45s %14.0f ns/op %10d allocs/op\n", bb.Name, res.NsPerOp, res.AllocsPerOp)
	}
	if added == 0 {
		fmt.Println("baseline already covers every benchmark; nothing to do")
		return nil
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkBaseline compares the working tree against a committed baseline and
// returns an error on any ns/op regression beyond the tolerance. Benchmarks
// are noisy, especially on shared CI runners, so a candidate that trips the
// gate is re-measured (up to three attempts total) and judged on its best
// run; allocs/op drift is reported but does not fail the gate — the
// Workers=1 parity tests own the hard allocation bound.
func checkBaseline(path string, tolerance float64) error {
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	if base.Config.Requests != baselineRequests {
		return fmt.Errorf("baseline was recorded at %d requests; this binary measures %d — regenerate with -baseline-out",
			base.Config.Requests, baselineRequests)
	}
	if base.Config.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		fmt.Printf("note: baseline recorded at GOMAXPROCS=%d, running at %d; parallel-audit points may differ\n",
			base.Config.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}

	names := make([]string, 0, len(base.Results))
	for name := range base.Results {
		names = append(names, name)
	}
	sort.Strings(names)

	benches := make(map[string]experiments.Benchmark)
	for _, bb := range baselineBenches() {
		benches[bb.Name] = bb
	}

	var failures []string
	for _, name := range names {
		bb, ok := benches[name]
		if !ok {
			fmt.Printf("note: baseline entry %q has no benchmark in this binary; skipping\n", name)
			continue
		}
		want := base.Results[name]
		limit := want.NsPerOp * (1 + tolerance)
		var best baselineResult
		pass := false
		for attempt := 1; attempt <= 3; attempt++ {
			got, err := measureBaseline(bb)
			if err != nil {
				return err
			}
			if attempt == 1 || got.NsPerOp < best.NsPerOp {
				best = got
			}
			if best.NsPerOp <= limit {
				pass = true
				break
			}
		}
		status := "ok"
		if !pass {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (limit %.0f)", name, best.NsPerOp, want.NsPerOp, limit))
		}
		fmt.Printf("%-45s %14.0f ns/op (baseline %14.0f, %+6.1f%%) %s\n",
			name, best.NsPerOp, want.NsPerOp, 100*(best.NsPerOp-want.NsPerOp)/want.NsPerOp, status)
		if want.AllocsPerOp > 0 && best.AllocsPerOp > want.AllocsPerOp+want.AllocsPerOp/10 {
			fmt.Printf("note: %s allocs/op grew %d -> %d\n", name, want.AllocsPerOp, best.AllocsPerOp)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "regression: "+f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", len(failures), 100*tolerance)
	}
	return nil
}
