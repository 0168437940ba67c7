package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

// RecordThroughput measures sustained durable-append throughput through the
// epoch log: conc goroutines each waiting for its event to be durable
// before issuing the next (exactly the collector's commit discipline).
// Group commit amortizes one fsync over a whole batch of concurrent
// waiters; per-request mode pays a private write+fsync inline per event.
// Returns events per second.
func RecordThroughput(group bool, conc, events int) (float64, error) {
	dir, err := os.MkdirTemp("", "karousos-record-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := epochlog.Open(dir, epochlog.Options{GroupCommit: group})
	if err != nil {
		return 0, err
	}
	defer l.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	start := time.Now()
	for g := 0; g < conc; g++ {
		per := events / conc
		if g < events%conc {
			per++
		}
		wg.Add(1)
		go func(g, per int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := trace.Event{Kind: trace.Req, RID: fmt.Sprintf("g%d-r%d", g, i), Data: value.Map("i", float64(i))}
				if err := l.AppendEventDurable(ctx, e); err != nil {
					errs <- err
					return
				}
			}
		}(g, per)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return float64(events) / elapsed.Seconds(), nil
}

// RecordThroughputPanel is the Figure-13 panel behind the serving path's
// load story (DESIGN.md §14): sustained record throughput of the epoch
// log's two commit disciplines across concurrency levels. The speedup
// column is the group-commit batching win; it grows with concurrency
// because a batch can only be as large as the set of concurrent waiters.
func RecordThroughputPanel(cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("sustained record throughput — per-request fsync vs group commit, %d events", recordEvents(cfg)),
		Header: []string{"conc", "per-request", "group-commit", "speedup"},
	}
	events := recordEvents(cfg)
	for _, conc := range cfg.Conc {
		var per, grp []float64
		for tr := 0; tr < cfg.Trials; tr++ {
			tp, err := RecordThroughput(false, conc, events)
			must(err)
			tg, err := RecordThroughput(true, conc, events)
			must(err)
			per = append(per, tp)
			grp = append(grp, tg)
		}
		mp, mg := median(per), median(grp)
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc),
			fmt.Sprintf("%.0f ev/s", mp),
			fmt.Sprintf("%.0f ev/s", mg),
			fmt.Sprintf("%.2fx", mg/mp),
		})
	}
	return p
}

// recordEvents sizes the throughput trials off the request budget: each
// request is two trace events, and the panel appends a few epochs' worth
// so the steady state dominates the open/rotate edges.
func recordEvents(cfg Config) int {
	n := cfg.Requests * 4
	if n < 512 {
		n = 512
	}
	return n
}
