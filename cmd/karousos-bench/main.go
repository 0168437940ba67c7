// karousos-bench regenerates the tables behind every figure of the paper's
// evaluation (Figures 6–12), plus this module's own Figures 13–15: record
// throughput (group commit vs per-request fsync, DESIGN.md §14), shard
// scaling (§15) and memo cold vs warm (§18). Without flags it reproduces
// the paper's setup (experiments.DefaultConfig): 600-request workloads
// (server-overhead panels warm up on the first 120), concurrency swept over
// 1–60, medians of 3 trials.
//
// Usage:
//
//	karousos-bench                  # all figures
//	karousos-bench -fig 7           # one figure
//	karousos-bench -fig 13          # record throughput only
//	karousos-bench -requests 300 -trials 1 -conc 1,30   # a quick pass
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"karousos.dev/karousos/internal/experiments"
)

func main() {
	def := experiments.DefaultConfig()
	defConc := make([]string, len(def.Conc))
	for i, c := range def.Conc {
		defConc[i] = strconv.Itoa(c)
	}
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 6..15 or all")
		requests = flag.Int("requests", def.Requests, "requests per workload")
		warmup   = flag.Int("warmup", def.Warmup, "warm-up requests for server-overhead panels")
		trials   = flag.Int("trials", def.Trials, "trials per data point (median reported)")
		conc     = flag.String("conc", strings.Join(defConc, ","), "comma-separated concurrency levels")
		seed     = flag.Int64("seed", def.Seed, "base seed for workloads and schedulers")
		workers  = flag.String("workers", "", "comma-separated audit worker levels for the Figure-7 worker sweep (default: 1,2,4,GOMAXPROCS)")

		baselineOut    = flag.String("baseline-out", "", "write a performance baseline (ns/op, allocs/op) to this JSON file and exit")
		baselineUpdate = flag.String("baseline-update", "", "measure only the benchmarks missing from this baseline JSON file, merge them in, and exit")
		baselineCheck  = flag.String("baseline-check", "", "check the working tree against a committed baseline JSON file and exit non-zero on regression")
		baselineTol    = flag.Float64("baseline-tolerance", 0.25, "fractional ns/op slowdown allowed by -baseline-check")
	)
	flag.Parse()

	if *baselineOut != "" || *baselineUpdate != "" || *baselineCheck != "" {
		if *baselineOut != "" {
			if err := writeBaseline(*baselineOut, false); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *baselineUpdate != "" {
			if err := writeBaseline(*baselineUpdate, true); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *baselineCheck != "" {
			if err := checkBaseline(*baselineCheck, *baselineTol); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	cfg := experiments.Config{
		Requests: *requests,
		Warmup:   *warmup,
		Trials:   *trials,
		Seed:     *seed,
	}
	for _, part := range strings.Split(*conc, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			fmt.Fprintf(os.Stderr, "bad concurrency level %q\n", part)
			os.Exit(2)
		}
		cfg.Conc = append(cfg.Conc, c)
	}
	if *workers != "" {
		for _, part := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "bad worker level %q\n", part)
				os.Exit(2)
			}
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	if cfg.Warmup >= cfg.Requests {
		fmt.Fprintln(os.Stderr, "warmup must be smaller than requests")
		os.Exit(2)
	}

	var figs []int
	if *fig == "all" {
		figs = experiments.Figures()
	} else {
		n, err := strconv.Atoi(*fig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad figure %q\n", *fig)
			os.Exit(2)
		}
		figs = []int{n}
	}

	for _, n := range figs {
		fmt.Printf("==== Figure %d ====\n", n)
		for _, panel := range experiments.Figure(n, cfg) {
			printPanel(panel)
		}
	}
}

func printPanel(p experiments.Panel) {
	fmt.Printf("\n-- %s --\n", p.Title)
	widths := make([]int, len(p.Header))
	for i, h := range p.Header {
		widths[i] = len(h)
	}
	for _, row := range p.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Printf("%-*s  ", widths[i], cell)
		}
		fmt.Println()
	}
	printRow(p.Header)
	for _, row := range p.Rows {
		printRow(row)
	}
	fmt.Println()
}
