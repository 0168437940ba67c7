// karousos-fleet runs the sharded audit plane as a supervised fleet of
// real OS processes:
//
//	karousos-fleet serve -app wiki -shards 4 -root shards -addr :8081
//	    writes the shard map, spawns one collector process per shard plus
//	    the gateway (all re-execs of this binary), health-checks every
//	    member over /readyz, restarts crashed members from their durable
//	    epoch logs within a restart budget, and on SIGTERM stops the
//	    gateway first and then lets every collector drain and seal;
//
//	karousos-fleet accept -shards 3 -n 60
//	    is the supervision acceptance scenario: spawn the fleet, drive a
//	    burst through the gateway, SIGKILL one collector mid-epoch, prove
//	    the supervisor repairs it and the gateway's /readyz recovers, then
//	    drain, seal, and audit the topology — exiting 0 only if every
//	    robustness invariant held (no lost acks, no false accusation,
//	    lane-count-invariant verdicts).
//
// The supervisor adds no trust: a member that dies is restarted on the
// same epoch-log directory and its own crash recovery seals whatever the
// death stranded as Degraded, which the audit grades Unauditable — the
// fleet buys liveness, never a cover story.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/fleet"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit so tests drive the CLI
// in-process and assert on exit codes. The "__collector" and "__gateway"
// verbs are the fleet's internal member roles — the supervisor re-execs
// this same binary with them, so a fleet needs exactly one executable.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "serve":
		return serveCmd(args[1:], stdout, stderr)
	case "accept":
		return acceptCmd(args[1:], stdout, stderr)
	case "__collector":
		return collectorRole(args[1:], stdout, stderr)
	case "__gateway":
		return gatewayRole(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: karousos-fleet serve|accept [flags]

  serve   supervise a live fleet: one collector process per shard plus the
          gateway; SIGTERM stops the gateway first, then drains and seals
          every collector
  accept  spawn a fleet, kill one collector mid-burst, verify supervised
          recovery and a clean post-drain audit; exits 0 if every
          invariant held, 2 on a violation, 1 on runner breakage`)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "karousos-fleet:", err)
	return 1
}

// collectorRole is one shard's collector process: a collectorhttp server
// whose SIGTERM handler drains in-flight requests and seals the open
// epoch, so a supervised stop strands nothing.
func collectorRole(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("__collector", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application")
	dir := fs.String("dir", "", "epoch log directory")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	epochReqs := fs.Int("epoch-requests", 50, "seal threshold")
	seed := fs.Int64("seed", 42, "scheduler seed")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	spec, err := harness.SpecByName(*app)
	if err != nil {
		return fail(stderr, err)
	}
	if *dir == "" {
		return fail(stderr, errors.New("__collector needs -dir"))
	}
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          spec,
		Dir:           *dir,
		EpochRequests: *epochReqs,
		Seed:          *seed,
		Limits:        verifier.DefaultLimits(),
	})
	if err != nil {
		return fail(stderr, err)
	}
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
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			hs.Close()
		}
	}()
	fmt.Fprintf(stdout, "collector: %s on %s, log %s\n", *app, *addr, *dir)
	err = hs.ListenAndServe()
	// Close seals the open epoch — the supervised drain must not leave
	// recorded requests unsealed (unauditable-by-absence).
	if closeErr := col.Close(); closeErr != nil {
		return fail(stderr, closeErr)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "collector: sealed %d epochs, served %d requests\n",
		col.Status().SealedEpochs, col.Status().Served)
	return 0
}

// gatewayRole is the fleet's front-door process: the resilient gateway
// over the fixed backend list the supervisor handed it.
func gatewayRole(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("__gateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "topology root holding shardmap.json")
	backends := fs.String("backends", "", "comma-separated shard backend URLs")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	perTry := fs.Duration("per-try-timeout", 0, "per-attempt proxy budget (0 = default)")
	breakerOpenFor := fs.Duration("breaker-open-for", 0, "open-circuit window (0 = default)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *root == "" || *backends == "" {
		return fail(stderr, errors.New("__gateway needs -root and -backends"))
	}
	m, err := shard.ReadMap(*root)
	if err != nil {
		return fail(stderr, err)
	}
	gw, err := gateway.New(gateway.Config{
		Map:      m,
		Backends: strings.Split(*backends, ","),
		Tuning:   gateway.Tuning{PerTryTimeout: *perTry, BreakerOpenFor: *breakerOpenFor},
	})
	if err != nil {
		return fail(stderr, err)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			hs.Close()
		}
	}()
	fmt.Fprintf(stdout, "gateway: fronting %d shards on %s\n", m.Shards, *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(stderr, err)
	}
	return 0
}

// freePorts reserves n distinct loopback ports by binding :0 and closing.
// The classic race (another process grabbing the port before the member
// binds it) is accepted: members that lose the race crash on bind and the
// readiness wait reports it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleetSpec is everything needed to spawn one topology as processes.
type fleetSpec struct {
	root          string
	shards        int
	app           string
	epochRequests int
	seed          int64
	budget        int
	gatewayAddr   string // "" = pick a free port
	drain         time.Duration
}

// buildMembers writes the shard map and lays out the member list:
// collectors first, gateway last — Stop walks the list in reverse, so the
// front door dies before the shards it routes into.
func buildMembers(spec fleetSpec) ([]fleet.MemberSpec, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	app, err := harness.SpecByName(spec.app)
	if err != nil {
		return nil, "", err
	}
	m := shard.Map{Shards: spec.shards, KeyFields: app.KeyFields}
	if err := shard.WriteMap(nil, spec.root, m); err != nil {
		return nil, "", err
	}
	need := spec.shards
	gwAddr := spec.gatewayAddr
	if gwAddr == "" {
		need++
	}
	ports, err := freePorts(need)
	if err != nil {
		return nil, "", err
	}
	if gwAddr == "" {
		gwAddr = fmt.Sprintf("127.0.0.1:%d", ports[spec.shards])
	}
	members := make([]fleet.MemberSpec, 0, spec.shards+1)
	backends := make([]string, 0, spec.shards)
	for s := 0; s < spec.shards; s++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[s])
		backends = append(backends, "http://"+addr)
		members = append(members, fleet.MemberSpec{
			Name: fmt.Sprintf("shard-%02d", s),
			Argv: []string{exe, "__collector",
				"-app", spec.app,
				"-dir", shard.Dir(spec.root, s),
				"-addr", addr,
				"-epoch-requests", strconv.Itoa(spec.epochRequests),
				"-seed", strconv.FormatInt(spec.seed+int64(s), 10),
				"-drain", spec.drain.String(),
			},
			ReadyURL:      "http://" + addr + "/readyz",
			RestartBudget: spec.budget,
		})
	}
	members = append(members, fleet.MemberSpec{
		Name: "gateway",
		Argv: []string{exe, "__gateway",
			"-root", spec.root,
			"-backends", strings.Join(backends, ","),
			"-addr", gwAddr,
			"-per-try-timeout", "1s",
			"-drain", spec.drain.String(),
		},
		ReadyURL:      "http://" + gwAddr + "/readyz",
		RestartBudget: spec.budget,
	})
	return members, "http://" + gwAddr, nil
}

func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application served by every shard")
	shards := fs.Int("shards", 4, "shard count")
	root := fs.String("root", "karousos-fleet", "topology root (shardmap.json + shard-NN logs)")
	addr := fs.String("addr", "127.0.0.1:8081", "gateway listen address")
	epochReqs := fs.Int("epoch-requests", 50, "per-shard seal threshold")
	seed := fs.Int64("seed", 42, "scheduler seed; shard s serves with seed+s")
	budget := fs.Int("restart-budget", fleet.DefaultRestartBudget, "restarts the supervisor pays per member")
	drain := fs.Duration("drain", 15*time.Second, "grace period for drain-and-seal on SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	members, gwURL, err := buildMembers(fleetSpec{
		root: *root, shards: *shards, app: *app,
		epochRequests: *epochReqs, seed: *seed, budget: *budget,
		gatewayAddr: *addr, drain: *drain,
	})
	if err != nil {
		return fail(stderr, err)
	}
	sup, err := fleet.New(fleet.Config{Members: members, Output: stdout})
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := sup.Start(ctx); err != nil {
		sup.Stop(*drain) //karousos:errladder-ok the start failure is the error that surfaces
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "fleet up: %d collectors + gateway at %s (SIGTERM to drain and seal)\n",
		*shards, gwURL)
	<-ctx.Done()
	stop()
	if err := sup.Stop(*drain); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "fleet stopped: every member drained and sealed")
	return 0
}

func acceptCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accept", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shards := fs.Int("shards", 3, "shard count")
	n := fs.Int("n", 60, "requests to drive through the gateway")
	epochReqs := fs.Int("epoch-requests", 5, "per-shard seal threshold")
	seed := fs.Int64("seed", 11, "workload and scheduler seed")
	root := fs.String("root", "", "topology root (default: a fresh temp dir)")
	killAt := fs.Int("kill-at", -1, "SIGKILL the victim collector at the first mid-epoch request index >= this (-1 = n/3)")
	drain := fs.Duration("drain", 10*time.Second, "drain-and-seal grace on stop")
	verbose := fs.Bool("v", false, "print the full result as JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *shards <= 0 || *n <= 0 || *epochReqs <= 0 {
		return fail(stderr, errors.New("accept needs positive -shards, -n and -epoch-requests"))
	}
	if *root == "" {
		tmp, err := os.MkdirTemp("", "karousos-fleet-")
		if err != nil {
			return fail(stderr, err)
		}
		defer os.RemoveAll(tmp)
		*root = tmp
	}
	if *killAt < 0 {
		*killAt = *n / 3
	}
	res, err := runAccept(*root, *shards, *n, *epochReqs, *seed, *killAt, *drain, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if *verbose {
		blob, _ := json.MarshalIndent(res, "", "  ") //karousos:errladder-ok display of a struct we just built
		fmt.Fprintln(stdout, string(blob))
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(stdout, "FLEET ACCEPT: INVARIANT VIOLATED (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  - %s\n", v)
		}
		return 2
	}
	fmt.Fprintf(stdout, "FLEET ACCEPT OK: served=%d degraded=%d restarts=%d accepted=%d unauditable=%d — kill, supervised restart, drain and audit all held\n",
		res.Served, res.Degraded, res.VictimRestarts, res.Accepted, res.Unauditable)
	return 0
}

// acceptResult is what the acceptance scenario observed.
type acceptResult struct {
	Served         int      `json:"served"`
	Degraded       int      `json:"degraded"`
	Shed           int      `json:"shed"`
	VictimRestarts int      `json:"victimRestarts"`
	Accepted       int      `json:"accepted"`
	Rejected       int      `json:"rejected"`
	Unauditable    int      `json:"unauditable"`
	Merge          string   `json:"merge"`
	Violations     []string `json:"violations,omitempty"`
}

// runAccept drives the supervised-fleet acceptance scenario. The error
// return is runner breakage; invariant breaches land in Violations.
func runAccept(root string, shards, n, epochReqs int, seed int64, killAt int, drain time.Duration, logw io.Writer) (*acceptResult, error) {
	members, gwURL, err := buildMembers(fleetSpec{
		root: root, shards: shards, app: "wiki",
		epochRequests: epochReqs, seed: seed, budget: fleet.DefaultRestartBudget,
		drain: drain,
	})
	if err != nil {
		return nil, err
	}
	sup, err := fleet.New(fleet.Config{
		Members:        members,
		Output:         logw,
		RestartBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sup.Start(ctx); err != nil {
		sup.Stop(drain) //karousos:errladder-ok the start failure is the error that surfaces
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sup.Stop(drain) //karousos:errladder-ok cleanup on the error path; the first error surfaces
		}
	}()

	res := &acceptResult{}
	violate := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}
	victim := 1 % shards
	victimName := fmt.Sprintf("shard-%02d", victim)
	m, err := shard.ReadMap(root)
	if err != nil {
		return nil, err
	}

	client := &http.Client{Timeout: 30 * time.Second}
	ackedByShard := make(map[int]map[string]bool)
	victimServed, killed := 0, false
	for i, req := range workload.Wiki(n, seed) {
		// The kill waits for "mid-epoch": the victim must hold a nonempty
		// open epoch so SIGKILL provably strands evidence for the audit to
		// grade Unauditable — a kill on a boundary would prove less.
		if !killed && i >= killAt && victimServed%epochReqs != 0 {
			if err := sup.Kill(victimName); err != nil {
				return res, fmt.Errorf("killing %s: %w", victimName, err)
			}
			killed = true
		}
		resp, err := collectorhttp.Invoke(client, gwURL, req.Input)
		if err != nil {
			violate("request %d: gateway unreachable: %v", i, err)
			continue
		}
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //karousos:errladder-ok scenario-side read; status carries the verdict
		resp.Body.Close()
		wantShard := m.ShardOf(value.Normalize(req.Input))
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
			if wantShard == victim {
				victimServed++
			}
		case http.StatusTooManyRequests:
			res.Shed++
		case http.StatusServiceUnavailable:
			res.Degraded++
			if wantShard != victim {
				violate("request %d: survivor shard %d degraded (victim is %d)", i, wantShard, victim)
			}
		default:
			violate("request %d: status %d — a member death must surface as 200/429/503", i, resp.StatusCode)
		}
	}
	if !killed {
		violate("the victim was never killed: kill-at %d left no mid-epoch window in %d requests", killAt, n)
	}

	// Supervised recovery: the dead member must come back within its
	// budget and the gateway's AND-/readyz must flip back to 200.
	recoverDeadline := time.Now().Add(30 * time.Second)
	for killed {
		st := memberStatus(sup, victimName)
		if st.Running && st.Ready {
			res.VictimRestarts = st.Restarts
			if st.Restarts == 0 {
				violate("%s is up but the supervisor recorded no restart", victimName)
			}
			break
		}
		if time.Now().After(recoverDeadline) {
			violate("%s never recovered: %+v", victimName, st)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if readyCode := getStatus(client, gwURL+"/readyz"); readyCode != http.StatusOK {
		violate("gateway /readyz = %d after recovery, want 200", readyCode)
	}

	// Drain and seal: gateway first, then every collector's SIGTERM path
	// seals its open epoch.
	stopped = true
	if err := sup.Stop(drain); err != nil {
		violate("graceful stop escalated: %v", err)
	}

	// Invariant: acked⊆sealed per shard — SIGKILL included, every RID a
	// client saw 200 for is in a sealed epoch of the shard that served it.
	missing, err := chaos.AckedUnsealed(root, shards, ackedByShard)
	if err != nil {
		return res, err
	}
	res.Violations = append(res.Violations, missing...)

	// The post-mortem audit: verdicts must be lane-count-invariant, the
	// victim's SIGKILL grades Unauditable at worst, and nothing is accused.
	out, violations, err := chaos.AuditLanes(root, shards)
	if err != nil {
		return res, err
	}
	res.Merge = string(out.Merge.Code)
	g := chaos.Grade(out, victim, true, "a process death")
	res.Accepted, res.Unauditable, res.Rejected = g.Accepted, g.Unauditable, g.Rejected
	res.Violations = append(res.Violations, g.Violations...)
	if killed && !g.VictimUnauditable {
		violate("victim shard %d has no unauditable epoch: the SIGKILL left no stranded evidence to grade", victim)
	}
	res.Violations = append(res.Violations, violations...)
	return res, nil
}

// memberStatus finds one member's status by name.
func memberStatus(sup *fleet.Supervisor, name string) fleet.MemberStatus {
	for _, st := range sup.Status() {
		if st.Name == name {
			return st
		}
	}
	return fleet.MemberStatus{Name: name}
}

// getStatus GETs a URL and returns the status code (0 on transport error).
func getStatus(client *http.Client, url string) int {
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //karousos:errladder-ok health probe; the status code is the answer
	resp.Body.Close()
	return resp.StatusCode
}
