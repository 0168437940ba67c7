package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// shardLevels is the Figure-14 sweep: topology widths the scaling panel
// builds and audits.
func shardLevels() []int { return []int{1, 2, 4, 8} }

// shardEpochRequests keeps several epochs per shard even at the widest
// topology, so every lane exercises the cross-epoch carry.
func shardEpochRequests(requests, shards int) int {
	per := requests / shards / 4
	if per < 2 {
		per = 2
	}
	return per
}

// BuildShardTopology serves the wiki workload through a local gateway
// over the given shard count and leaves the sealed topology under root:
// shardmap.json plus one epoch log per shard, exactly what
// karousos-auditd audit -shards consumes.
func BuildShardTopology(root string, shards, requests int, seed int64) error {
	spec := harness.WikiApp()
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec:          spec,
		Root:          root,
		Map:           shard.Map{Shards: shards, KeyFields: spec.KeyFields},
		EpochRequests: shardEpochRequests(requests, shards),
		Seed:          seed,
		Limits:        verifier.DefaultLimits(),
	})
	if err != nil {
		return err
	}
	return errors.Join(invokeAll(top.Gateway.Handler(), workload.Wiki(requests, seed)), top.Close())
}

// invokeAll posts each request's input, in order, to h's /invoke endpoint
// over a loopback server and fails on the first non-200 answer.
func invokeAll(h http.Handler, reqs []server.Request) error {
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, r := range reqs {
		resp, err := collectorhttp.Invoke(http.DefaultClient, ts.URL, r.Input)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("experiments: invoke: status %d", resp.StatusCode)
		}
	}
	return nil
}

// auditShardTopology audits a sealed topology from scratch (no
// checkpoints, so every trial grades the full log) and returns the wall
// time with the result. AuditWorkers is pinned to 1 so the measured
// speedup isolates shard-level parallelism from the per-epoch parallel
// engine.
func auditShardTopology(root string, lanes int) (time.Duration, auditd.ShardedResult, error) {
	sh, err := auditd.NewSharded(auditd.ShardedConfig{
		Root:         root,
		Lanes:        lanes,
		Limits:       verifier.DefaultLimits(),
		AuditWorkers: 1,
	})
	if err != nil {
		return 0, auditd.ShardedResult{}, err
	}
	start := time.Now()
	res, err := sh.Audit(context.Background())
	return time.Since(start), res, err
}

// ShardScalingPanel is the Figure-14 panel behind the sharded audit
// plane (DESIGN.md §15): the same total workload served over 1/2/4/8
// shards, each topology audited with one lane per shard. Audit
// throughput (requests graded per second) is the scaling claim; the
// panel also re-audits each topology with a single lane and asserts the
// combined verdict and summed Stats are identical — lane scheduling
// never reaches the verdict.
func ShardScalingPanel(cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("shard scaling — wiki, %d requests, lanes = shards, audit workers 1", cfg.Requests),
		Header: []string{"shards", "audit", "throughput", "speedup", "handlers-rerun"},
	}
	var base time.Duration
	for _, shards := range shardLevels() {
		root, err := os.MkdirTemp("", "karousos-shard-panel-")
		must(err)
		must(BuildShardTopology(root, shards, cfg.Requests, cfg.Seed))
		var ds []time.Duration
		var res auditd.ShardedResult
		for tr := 0; tr < cfg.Trials; tr++ {
			d, r, err := auditShardTopology(root, shards)
			must(err)
			if !r.Accepted() {
				panic(fmt.Sprintf("experiments: shard panel rejected at %d shards: [%s] %s", shards, r.Merge.Code, r.Merge.Reason))
			}
			ds = append(ds, d)
			res = r
		}
		// The lane-count differential: one lane over the same logs must
		// land on the same verdict and the same work counters.
		_, seq, err := auditShardTopology(root, 1)
		must(err)
		if seq.Merge.Code != res.Merge.Code || seq.Stats != res.Stats {
			panic(fmt.Sprintf("experiments: shard panel diverged at %d shards: lanes=%d %+v vs lanes=1 %+v",
				shards, shards, res.Stats, seq.Stats))
		}
		os.RemoveAll(root)

		m := median(ds)
		if base == 0 {
			base = m
		}
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(shards),
			fdur(m),
			fmt.Sprintf("%.0f req/s", float64(cfg.Requests)/m.Seconds()),
			fmt.Sprintf("%.2fx", float64(base)/float64(m)),
			fmt.Sprint(res.Stats.HandlersRerun),
		})
	}
	return p
}
