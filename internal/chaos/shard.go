package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// ShardScenario scripts misfortune against a gateway-fronted shard
// topology: a workload fanned across shards with one shard's collector
// killed (no seal, its active epoch's tail abandoned) and later
// restarted. The invariants are the sharded restatement of this
// package's doc comment: the kill may cost auditability of the partial
// epoch, never an accusation; the combined verdict is identical whether
// the shard logs are audited by one lane or one lane per shard; and no
// evidence file any shard ever sealed disappears.
type ShardScenario struct {
	// App names the application; only "wiki" is shardable (its store keys
	// are page-local), so that is the default and the only accepted value.
	App  string `json:"app"`
	Seed int64  `json:"seed"`
	// Shards is the topology width.
	Shards int `json:"shards"`
	// Requests and EpochRequests are as in Scenario, per the whole
	// topology (EpochRequests is each shard's seal threshold).
	Requests      int `json:"requests"`
	EpochRequests int `json:"epochRequests"`
	// KillShard is crashed after KillAt requests and restarted after
	// RestartAt requests (KillAt <= RestartAt < Requests).
	KillShard int `json:"killShard"`
	KillAt    int `json:"killAt"`
	RestartAt int `json:"restartAt"`
}

// ShardResult is what a shard scenario run observed.
type ShardResult struct {
	Served  int `json:"served"`
	Refused int `json:"refused"`
	// Shards is the per-lane report of the full-width audit; Merge its
	// combined verdict.
	Shards []auditd.ShardReport `json:"shards"`
	Merge  shard.MergeResult    `json:"merge"`
	// Accepted/Unauditable/Rejected tally per-shard epoch verdicts across
	// the topology.
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	Unauditable int `json:"unauditable"`
	// Violations are robustness-invariant breaches; empty on a sound run.
	Violations []string `json:"violations,omitempty"`
}

// ShardAcceptanceScenario is the fixed-seed shard-chaos criterion: a
// mid-run kill+restart of one shard under a wiki workload wide enough to
// touch every shard. Expected outcome: no rejection anywhere, at most
// Unauditable for the killed shard's partial epoch, and a combined
// verdict identical at every lane count.
func ShardAcceptanceScenario(shards int, seed int64) ShardScenario {
	if shards <= 0 {
		shards = 4
	}
	return ShardScenario{
		App:           "wiki",
		Seed:          seed,
		Shards:        shards,
		Requests:      60,
		EpochRequests: 5,
		KillShard:     1 % shards,
		KillAt:        30,
		RestartAt:     30,
	}
}

// RunShardChaos replays the scenario in dir (a scratch directory the
// caller owns). The error return is for runner breakage — invariant
// violations land in ShardResult.Violations.
func RunShardChaos(dir string, sc ShardScenario) (*ShardResult, error) {
	if sc.App == "" {
		sc.App = "wiki"
	}
	if sc.App != "wiki" {
		return nil, fmt.Errorf("chaos: shard scenario needs a shardable app; %q's store keys cross shards", sc.App)
	}
	if sc.Shards <= 0 || sc.Requests <= 0 || sc.EpochRequests <= 0 {
		return nil, fmt.Errorf("chaos: shard scenario needs positive Shards, Requests and EpochRequests")
	}
	if sc.KillShard < 0 || sc.KillShard >= sc.Shards || sc.KillAt > sc.RestartAt || sc.RestartAt >= sc.Requests {
		return nil, fmt.Errorf("chaos: shard scenario kill schedule out of range")
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
	})
	if err != nil {
		return nil, err
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	res := &ShardResult{}
	down := false
	for i, req := range workload.Wiki(sc.Requests, sc.Seed) {
		if i == sc.KillAt && !down {
			if err := top.Crash(sc.KillShard); err != nil {
				return res, fmt.Errorf("chaos: crashing shard %d: %w", sc.KillShard, err)
			}
			down = true
		}
		if i == sc.RestartAt && down {
			if err := top.Restart(sc.KillShard); err != nil {
				return res, fmt.Errorf("chaos: restarting shard %d: %w", sc.KillShard, err)
			}
			down = false
		}
		resp, err := collectorhttp.Invoke(http.DefaultClient, ts.URL, req.Input)
		if err != nil {
			res.Refused++
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			res.Served++
		} else {
			// The killed shard's requests bounce off the gateway as 503
			// until the restart; that is load shedding, not a violation.
			res.Refused++
		}
	}
	if down {
		if err := top.Restart(sc.KillShard); err != nil {
			return res, fmt.Errorf("chaos: restarting shard %d: %w", sc.KillShard, err)
		}
	}
	if err := top.Close(); err != nil {
		return res, fmt.Errorf("chaos: sealing topology: %w", err)
	}

	out, violations, err := AuditLanes(root, sc.Shards)
	if err != nil {
		return res, err
	}
	res.Shards, res.Merge = out.Shards, out.Merge
	g := Grade(out, sc.KillShard, false, "an infrastructure kill")
	res.Accepted, res.Unauditable, res.Rejected = g.Accepted, g.Unauditable, g.Rejected
	res.Violations = append(append(res.Violations, g.Violations...), violations...)
	return res, nil
}

// Grading tallies a post-mortem audit's per-epoch verdicts.
type Grading struct {
	Accepted, Unauditable, Rejected int
	// VictimUnauditable: the faulted shard graded at least one epoch
	// Unauditable (the partial epoch its fault stranded).
	VictimUnauditable bool
	Violations        []string
}

// Grade tallies out's verdicts after an infrastructure fault (cause) on
// shard victim. A rejection anywhere, or a combined verdict other than
// accept or Unauditable, accuses an honest run; with survivorsClean only
// the victim may grade Unauditable.
func Grade(out auditd.ShardedResult, victim int, survivorsClean bool, cause string) Grading {
	var g Grading
	for _, rep := range out.Shards {
		for _, v := range rep.Verdicts {
			switch v.Code {
			case "":
				g.Accepted++
			case core.RejectUnauditable:
				g.Unauditable++
				if rep.Shard == victim {
					g.VictimUnauditable = true
				} else if survivorsClean {
					g.Violations = append(g.Violations, fmt.Sprintf(
						"surviving shard %d graded unauditable: epoch %d %s", rep.Shard, v.Epoch, v.Reason))
				}
			default:
				g.Rejected++
				g.Violations = append(g.Violations, fmt.Sprintf(
					"false reject: shard %d epoch %d [%s] %s", rep.Shard, v.Epoch, v.Code, v.Reason))
			}
		}
	}
	switch out.Merge.Code {
	case "", core.RejectUnauditable:
	default:
		g.Violations = append(g.Violations, fmt.Sprintf(
			"combined verdict accuses after %s: [%s] %s", cause, out.Merge.Code, out.Merge.Reason))
	}
	return g
}

// AuditLanes is the post-mortem audit of a sealed topology under root: it
// grades the shard logs with one lane per shard, then with a single lane,
// and returns the first result with the robustness violations it saw. The
// two passes must reach bit-identical verdicts, merge and Stats (lane
// scheduling never reaches a verdict), and every evidence file sealed
// before the audits must still exist after them (an auditor never destroys
// what it grades).
func AuditLanes(root string, shards int) (auditd.ShardedResult, []string, error) {
	var res auditd.ShardedResult
	var violations []string
	evidence, err := shardEvidence(root, shards)
	if err != nil {
		return res, nil, err
	}
	var keys [2]string
	for i, lanes := range []int{shards, 1} {
		sh, err := auditd.NewSharded(auditd.ShardedConfig{Root: root, Lanes: lanes, Limits: verifier.DefaultLimits()})
		if err != nil {
			return res, nil, err
		}
		out, err := sh.Audit(context.Background())
		if err != nil {
			return res, nil, err
		}
		if i == 0 {
			res = out
		}
		keys[i] = shardVerdictKey(out)
	}
	if keys[0] != keys[1] {
		violations = append(violations, fmt.Sprintf("lane-count divergence:\n%d lanes: %s\n1 lane:  %s", shards, keys[0], keys[1]))
	}
	after, err := shardEvidence(root, shards)
	if err != nil {
		return res, nil, err
	}
	for name := range evidence {
		if !after[name] {
			violations = append(violations, "evidence deleted: "+name)
		}
	}
	return res, violations, nil
}

// AckedUnsealed checks acked⊆sealed per shard: every RID a client saw a
// 200 for (acked, keyed by shard) must be a REQ in a sealed epoch of the
// shard that served it. It returns one violation per missing RID.
func AckedUnsealed(root string, shards int, acked map[int]map[string]bool) ([]string, error) {
	var violations []string
	for s := 0; s < shards; s++ {
		if len(acked[s]) == 0 {
			continue
		}
		sealed := map[string]bool{}
		dir := shard.Dir(root, s)
		manifests, err := epochlog.ListSealed(dir)
		if err != nil {
			return nil, err
		}
		for _, man := range manifests {
			tr, _, _, err := epochlog.ReadSealed(dir, man.Seq, epochlog.Options{})
			if err != nil {
				return nil, err
			}
			for _, rid := range tr.RIDs() {
				sealed[rid] = true
			}
		}
		for rid := range acked[s] {
			if !sealed[rid] {
				violations = append(violations, fmt.Sprintf("shard %d: acked rid %s missing from the sealed log", s, rid))
			}
		}
	}
	return violations, nil
}

// shardVerdictKey renders a sharded audit's verdict-affecting content as
// one comparable string, mirroring Result.VerdictKey.
func shardVerdictKey(res auditd.ShardedResult) string {
	var b strings.Builder
	for _, rep := range res.Shards {
		fmt.Fprintf(&b, "shard%d[%s]:", rep.Shard, rep.Code)
		for _, v := range rep.Verdicts {
			fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
		}
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "merge=%s conflicts=%d stats=%+v", res.Merge.Code, len(res.Merge.Conflicts), res.Stats)
	return b.String()
}

// shardEvidence lists every evidence file across all shard directories,
// keyed shard-relative, using the real OS filesystem.
func shardEvidence(root string, shards int) (map[string]bool, error) {
	present := map[string]bool{}
	for s := 0; s < shards; s++ {
		dir := shard.Dir(root, s)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("chaos: evidence scan of shard %d: %w", s, err)
		}
		for _, ent := range entries {
			if isEvidence(ent.Name()) {
				present[fmt.Sprintf("shard-%02d/%s", s, strings.TrimSuffix(ent.Name(), ".quarantined"))] = true
			}
		}
	}
	return present, nil
}
