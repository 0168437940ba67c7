// Partition scenarios: where RunShardChaos kills a collector process,
// RunPartition breaks the *network* between the gateway and its shards —
// blackholed links, flapping dials, a gateway restart — using
// netfault.Injector as the gateway's transport. The invariants are the
// partition-tolerance promises of DESIGN.md §16:
//
//   - the gateway answers every arrival with 200, 429 or 503 — no hangs
//     past the per-try budget, no 5xx storms, and every 503 carries a
//     Retry-After hint;
//   - a dark shard degrades only its own keyspace: requests routing to
//     the survivors keep returning 200 throughout;
//   - no acknowledged evidence is lost: every 200-acked RID appears in a
//     sealed epoch of the shard that served it, partition or not;
//   - the post-run sharded audit never turns infrastructure failure into
//     an accusation: the victim's losses grade Unauditable at worst, the
//     combined verdict is bit-identical at every lane count, and no shard
//     is falsely rejected.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/netfault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// Partition fault ingredients.
const (
	// PartitionNone runs no network fault (gateway-restart scenarios).
	PartitionNone = ""
	// PartitionBlackhole drops every packet to the victim: requests stall
	// to the per-try budget, then classify ambiguous. The breaker is what
	// turns this from N slow failures into fast 503s.
	PartitionBlackhole = "blackhole"
	// PartitionFlap refuses dials to the victim in seed-derived bursts —
	// the retry budget's natural prey, and provably-unsent, so retries are
	// sound.
	PartitionFlap = "flap"
)

// partitionTick is how much breaker time one scripted request takes: with
// the 150ms open window below, a tripped breaker fast-fails the victim's
// traffic for the next 15 requests before it half-opens.
const partitionTick = 10 * time.Millisecond

// PartitionScenario scripts misfortune against the network of a
// gateway-fronted shard topology.
type PartitionScenario struct {
	// App names the application; only "wiki" is shardable.
	App  string `json:"app"`
	Seed int64  `json:"seed"`
	// Shards is the topology width; Requests and EpochRequests as in
	// ShardScenario.
	Shards        int `json:"shards"`
	Requests      int `json:"requests"`
	EpochRequests int `json:"epochRequests"`
	// Victim is the shard whose network (and optionally process) suffers.
	Victim int `json:"victim"`
	// Fault is the network condition against the victim's backend:
	// PartitionBlackhole, PartitionFlap, or PartitionNone.
	Fault string `json:"fault,omitempty"`
	// FaultAt arms the fault at the first request index >= FaultAt where
	// the victim's open epoch is nonempty ("mid-epoch", so a subsequent
	// kill provably has partial evidence in flight). HealAt heals it
	// (-1 = never).
	FaultAt int `json:"faultAt,omitempty"`
	HealAt  int `json:"healAt,omitempty"`
	// KillAt crashes the victim's collector at that request index
	// (-1 = never) — the partitioned node dying, in-memory advice lost.
	// RestartAt boots a fresh incarnation (-1 = after the run).
	KillAt    int `json:"killAt,omitempty"`
	RestartAt int `json:"restartAt,omitempty"`
	// GatewayRestartAt swaps in a fresh gateway instance mid-run
	// (0 = never): the front door is stateless, so nothing may change.
	GatewayRestartAt int `json:"gatewayRestartAt,omitempty"`
	// ExpectUnauditable asserts the victim ends with at least one epoch
	// graded Unauditable — set when the scenario kills mid-epoch.
	ExpectUnauditable bool `json:"expectUnauditable,omitempty"`
}

// PartitionResult is what a partition run observed.
type PartitionResult struct {
	Served   int `json:"served"`
	Degraded int `json:"degraded"` // 503s, all with Retry-After
	Shed     int `json:"shed"`     // 429s passed through
	// Retries/FastFails are the gateway's own counters for the victim.
	Victim gateway.ShardCounters `json:"victim"`
	// Shards/Merge are the full-width audit's per-lane reports and
	// combined verdict; the verdict tallies span the whole topology.
	Shards      []auditd.ShardReport `json:"shards"`
	Merge       shard.MergeResult    `json:"merge"`
	Accepted    int                  `json:"accepted"`
	Rejected    int                  `json:"rejected"`
	Unauditable int                  `json:"unauditable"`
	// Violations are partition-invariant breaches; empty on a sound run.
	Violations []string `json:"violations,omitempty"`
}

// PartitionAcceptanceScenario is the fixed-seed partition criterion: the
// victim is blackholed mid-epoch, its collector killed while dark (losing
// the partial epoch's advice), then the link heals and a fresh
// incarnation rejoins. Expected outcome: only 200/429/503 at the
// gateway, survivors unaffected, acked⊆sealed everywhere, and the victim
// graded Unauditable — never accused.
func PartitionAcceptanceScenario(shards int, seed int64) PartitionScenario {
	if shards <= 0 {
		shards = 4
	}
	return PartitionScenario{
		App: "wiki", Seed: seed, Shards: shards,
		Requests: 80, EpochRequests: 5,
		Victim: 1 % shards,
		Fault:  PartitionBlackhole, FaultAt: 25, HealAt: 55,
		KillAt: 40, RestartAt: 55,
		ExpectUnauditable: true,
	}
}

// FlappingScenario: the victim's link refuses dials in bursts for the
// middle of the run, with no process death. Refused dials are provably
// unsent, so the gateway's retries are sound; everything the clients saw
// acked must audit clean.
func FlappingScenario(shards int, seed int64) PartitionScenario {
	if shards <= 0 {
		shards = 4
	}
	return PartitionScenario{
		App: "wiki", Seed: seed, Shards: shards,
		Requests: 60, EpochRequests: 5,
		Victim: 1 % shards,
		Fault:  PartitionFlap, FaultAt: 15, HealAt: 45,
		KillAt: -1, RestartAt: -1,
	}
}

// GatewayRestartScenario: the stateless front door restarts mid-run with
// no network fault. Nothing observable may change: every request serves,
// routing echoes are identical, and the audit is clean.
func GatewayRestartScenario(shards int, seed int64) PartitionScenario {
	if shards <= 0 {
		shards = 4
	}
	return PartitionScenario{
		App: "wiki", Seed: seed, Shards: shards,
		Requests: 40, EpochRequests: 5,
		Victim: 0, Fault: PartitionNone,
		KillAt: -1, RestartAt: -1,
		GatewayRestartAt: 20,
	}
}

// RunPartition replays the scenario in dir (a scratch directory the
// caller owns). The error return is for runner breakage — invariant
// violations land in PartitionResult.Violations.
func RunPartition(dir string, sc PartitionScenario) (*PartitionResult, error) {
	if sc.App == "" {
		sc.App = "wiki"
	}
	if sc.App != "wiki" {
		return nil, fmt.Errorf("chaos: partition scenario needs a shardable app; %q's store keys cross shards", sc.App)
	}
	if sc.Shards <= 0 || sc.Requests <= 0 || sc.EpochRequests <= 0 {
		return nil, fmt.Errorf("chaos: partition scenario needs positive Shards, Requests and EpochRequests")
	}
	if sc.Victim < 0 || sc.Victim >= sc.Shards {
		return nil, fmt.Errorf("chaos: victim shard %d out of range", sc.Victim)
	}
	switch sc.Fault {
	case PartitionNone, PartitionBlackhole, PartitionFlap:
	default:
		return nil, fmt.Errorf("chaos: unknown partition fault %q", sc.Fault)
	}

	inj := netfault.NewInjector()
	// Keep a dark shard's discovery latency test-sized: a blackholed try
	// stalls at most MaxBlock, and the gateway gives up each try at
	// PerTryTimeout. Tight breaker + backoff keep the run deterministic in
	// shape without real-time sleeps dominating.
	inj.MaxBlock = 50 * time.Millisecond
	// The breakers run on request-indexed time: each scripted request
	// advances the clock by partitionTick, so open windows, half-open
	// probes and fast-fails land on the same requests in every replay
	// however long the blackholed tries took on the wall.
	var tick atomic.Int64
	tuning := gateway.Tuning{
		Now: func() time.Time {
			return time.Unix(0, 0).Add(time.Duration(tick.Load()) * partitionTick)
		},
		PerTryTimeout:   250 * time.Millisecond,
		BreakerFailures: 3,
		BreakerOpenFor:  150 * time.Millisecond,
		RetryAfter:      time.Second,
		Backoff:         iofault.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Attempts: 3},
	}

	root := filepath.Join(dir, "shards")
	spec := harness.WikiApp()
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec:          spec,
		Root:          root,
		Map:           shard.Map{Shards: sc.Shards, KeyFields: spec.KeyFields},
		EpochRequests: sc.EpochRequests,
		Seed:          sc.Seed,
		Limits:        verifier.DefaultLimits(),
		Transport:     inj.Transport(nil),
		Tuning:        tuning,
	})
	if err != nil {
		return nil, err
	}
	defer top.Close()
	// The server wraps Local.Handler, not a specific gateway instance, so
	// RestartGateway is seamless — exactly like a load balancer repointing
	// at the replacement front-door process.
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()
	victimHost := strings.TrimPrefix(top.BackendURL(sc.Victim), "http://")

	res := &PartitionResult{}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	ackedByShard := make(map[int]map[string]bool)
	victimServed := 0
	faultArmed, down := false, false
	m := top.Map
	for i, req := range workload.Wiki(sc.Requests, sc.Seed) {
		tick.Store(int64(i))
		// Fault arming waits for "mid-epoch": the victim must hold a
		// nonempty open epoch so a kill while dark provably strands
		// evidence.
		if sc.Fault != PartitionNone && !faultArmed && i >= sc.FaultAt &&
			victimServed%sc.EpochRequests != 0 {
			op := netfault.OpBlackhole
			if sc.Fault == PartitionFlap {
				op = netfault.OpFlap
			}
			if err := inj.Arm(op, iofault.ArmConfig{Seed: sc.Seed, Times: -1, PathContains: victimHost}); err != nil {
				return res, err
			}
			faultArmed = true
		}
		if faultArmed && sc.HealAt >= 0 && i >= sc.HealAt {
			inj.HealTarget(victimHost)
			faultArmed = false
		}
		if sc.KillAt >= 0 && i >= sc.KillAt && !down && top.Collector(sc.Victim) != nil {
			if err := top.Crash(sc.Victim); err != nil {
				return res, fmt.Errorf("chaos: crashing shard %d: %w", sc.Victim, err)
			}
			down = true
		}
		if down && sc.RestartAt >= 0 && i >= sc.RestartAt {
			if err := top.Restart(sc.Victim); err != nil {
				return res, fmt.Errorf("chaos: restarting shard %d: %w", sc.Victim, err)
			}
			down = false
		}
		if sc.GatewayRestartAt > 0 && i == sc.GatewayRestartAt {
			if err := top.RestartGateway(); err != nil {
				return res, fmt.Errorf("chaos: restarting gateway: %w", err)
			}
		}

		resp, err := collectorhttp.Invoke(http.DefaultClient, ts.URL, req.Input)
		if err != nil {
			// The gateway itself must always answer; only the shards may
			// be dark.
			violate("request %d: gateway unreachable: %v", i, err)
			continue
		}
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //karousos:errladder-ok scenario-side read; status carries the verdict
		resp.Body.Close()

		wantShard := m.ShardOf(value.Normalize(req.Input))
		if got := resp.Header.Get(gateway.ShardHeader); got != strconv.Itoa(wantShard) {
			violate("request %d: shard header %q, map says %d", i, got, wantShard)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			res.Served++
			var out struct {
				RID string `json:"rid"`
			}
			if err := json.Unmarshal(blob, &out); err != nil || out.RID == "" {
				violate("request %d: 200 with no rid: %v", i, err)
				break
			}
			if ackedByShard[wantShard] == nil {
				ackedByShard[wantShard] = map[string]bool{}
			}
			ackedByShard[wantShard][out.RID] = true
			if wantShard == sc.Victim {
				victimServed++
			}
		case http.StatusTooManyRequests:
			res.Shed++
		case http.StatusServiceUnavailable:
			res.Degraded++
			if resp.Header.Get("Retry-After") == "" {
				violate("request %d: 503 without Retry-After", i)
			}
			if wantShard != sc.Victim {
				violate("request %d: survivor shard %d degraded (victim is %d)", i, wantShard, sc.Victim)
			}
		default:
			violate("request %d: status %d — partition must surface as 200/429/503, nothing else", i, resp.StatusCode)
		}
	}
	res.Victim = top.Gateway.Counters()[sc.Victim]

	// Heal and restart everything so the final seal covers every shard —
	// the recovered incarnation is what seals the victim's stranded tail.
	inj.Heal()
	if down {
		if err := top.Restart(sc.Victim); err != nil {
			return res, fmt.Errorf("chaos: restarting shard %d: %w", sc.Victim, err)
		}
	}
	if err := top.Close(); err != nil {
		return res, fmt.Errorf("chaos: sealing topology: %w", err)
	}

	// Invariant: acked⊆sealed per shard — every RID a client saw 200 for
	// is a REQ in a sealed epoch of the shard that served it.
	missing, err := AckedUnsealed(root, sc.Shards, ackedByShard)
	if err != nil {
		return res, err
	}
	res.Violations = append(res.Violations, missing...)

	out, violations, err := AuditLanes(root, sc.Shards)
	if err != nil {
		return res, err
	}
	res.Shards, res.Merge = out.Shards, out.Merge
	g := Grade(out, sc.Victim, true, "an infrastructure fault")
	res.Accepted, res.Unauditable, res.Rejected = g.Accepted, g.Unauditable, g.Rejected
	res.Violations = append(res.Violations, g.Violations...)
	if sc.ExpectUnauditable && !g.VictimUnauditable {
		violate("victim shard %d has no unauditable epoch: the kill-while-dark left no stranded evidence to grade", sc.Victim)
	}
	if !sc.ExpectUnauditable && res.Unauditable > 0 {
		violate("scenario without a kill graded %d epochs unauditable", res.Unauditable)
	}
	if out.Merge.Code == core.RejectUnauditable && !sc.ExpectUnauditable {
		violate("combined verdict unauditable without a kill: %s", out.Merge.Reason)
	}
	res.Violations = append(res.Violations, violations...)
	return res, nil
}
