package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/verifier"
	wl "karousos.dev/karousos/internal/workload"
)

// workload is one traffic mix and audit configuration. BENCHMARK.json
// and README.md say why each was chosen.
type workload struct {
	name         string
	spec         harness.AppSpec
	stream       func(n, epoch int, seed int64) ([]server.Request, error)
	epoch        int // requests per sealed epoch
	auditWorkers int // auditd.Config.AuditWorkers: 1 = sequential engine, more = parallel engine
	online       bool
	backlog      int // requests pre-recorded for a catch-up workload
}

var workloads = []workload{
	{name: "wiki-online", spec: harness.WikiApp(), stream: wikiStream, epoch: 50, auditWorkers: 1, online: true},
	{name: "wiki-backlog", spec: harness.WikiApp(), stream: wikiStream, epoch: 100, auditWorkers: 2, backlog: 1000},
	{name: "feeds-recurring", spec: harness.FeedsApp(), stream: feedsStream, epoch: 100, auditWorkers: 1, backlog: 1000},
}

func wikiStream(n, _ int, seed int64) ([]server.Request, error) { return wl.Wiki(n, seed), nil }

// feedsStream is the memo experiments' steady state: every epoch is its
// own base stream rewritten wholly to the recurring shapes, so the
// recurring sub-stream repeats bit for bit from one epoch to the next.
func feedsStream(n, epoch int, seed int64) ([]server.Request, error) {
	var out []server.Request
	for e := int64(0); len(out) < n; e++ {
		reqs, err := wl.WithRepeats(wl.Feeds(min(epoch, n-len(out)), wl.ReadHeavy, seed+e), "feeds", 1.0, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, reqs...)
	}
	return out, nil
}

const (
	onlineRate = 200.0 // requests/s offered to wiki-online, about half its two-connection capacity
	// onlineSetups and backlogSetups are how often a run builds its
	// pipeline; setup_s is the median.
	onlineSetups = 21
	// setupGap spaces wiki-online's set-ups, so their median samples
	// three seconds of the filesystem's state instead of one instant; the
	// work directory is synced before each, so pending metadata from
	// earlier work is not charged to it.
	setupGap      = 150 * time.Millisecond
	backlogSetups = 3
	// ratePassSeconds is how long catch-up audits of the wiki-online logs
	// run to give its audit_rps (the median pass).
	ratePassSeconds = 14.0
	// onlineSession is the longest one wiki-online pipeline serves.
	onlineSession = 10.0
	// serveWindow is how many consecutive requests one serve-latency
	// window holds (one second of wiki-online's schedule). serve_p50_ms is
	// the median of the windows' medians: a few seconds of interference
	// from other tenants of a shared host then cannot move it.
	serveWindow = 200
	// verdictWindow is the same for time-to-verdict: five seconds of
	// wiki-online, the fewest requests that leave ten beyond the p99.
	verdictWindow = 1000
	// directPasses is how often the traced run re-times the layers
	// directly on the sealed epochs (medians are reported).
	directPasses = 3
	// failedMS is the latency a failed or unacknowledged request counts
	// as: the client timeout, so it misses any latency limit.
	failedMS = 60000
)

// phase is one measured stretch of work and its cost.
type phase struct {
	Start, End time.Duration
	CPU        time.Duration
	rt0, rt1   []metrics.Sample
	Requests   int // requests served (serving phases) or graded (audit phases)
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func begin() phase {
	return phase{Start: now(), CPU: -cpuTime(), rt0: readRuntime()}
}

func (p *phase) end() {
	p.End, p.rt1 = now(), readRuntime()
	p.CPU += cpuTime()
}

func (p phase) wall() time.Duration { return p.End - p.Start }

// rtDelta is the change of runtime metric i over the phase.
func (p phase) rtDelta(i int) float64 {
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return float64(s.Value.Uint64())
		}
		return s.Value.Float64()
	}
	return val(p.rt1[i]) - val(p.rt0[i])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// fsType names the filesystem holding dir, for the result's record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x794C7630: "overlayfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// metric is one reported number; Note holds its sample count or base.
type metric struct {
	Name, Unit string
	Value      float64
	Note       string
}

// runner carries one benchmark invocation.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	work    string
	conns   int
	dirs    int

	metrics   []metric // reported in the JSON line
	notes     []metric // printed only: too unsteady on a shared host to gate on, or zero when all is well
	attempted int
	failed    int
	gateErrs  []string
	tr        *tracer // spans of the traced run
}

func (r *runner) add(name, unit string, v float64, note string, args ...any) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Note: fmt.Sprintf(note, args...)})
}

func (r *runner) note(name, unit string, v float64, note string, args ...any) {
	r.notes = append(r.notes, metric{Name: name, Unit: unit, Value: v, Note: fmt.Sprintf(note, args...)})
}

func (r *runner) gatef(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

func (r *runner) newDir() string {
	r.dirs++
	return filepath.Join(r.work, fmt.Sprintf("run%02d", r.dirs))
}

func (r *runner) bodies(n int) ([][]byte, error) {
	reqs, err := r.w.stream(n, r.w.epoch, r.seed)
	if err != nil {
		return nil, err
	}
	return bodies(reqs)
}

// served is one serving phase's outcome.
type served struct {
	phase
	dir   string
	sent  []sent
	late  []time.Duration
	log   *sealedLog
	stats verifier.Stats       // the follower's Stats (online only)
	vs    map[uint64]verdictAt // the follower's verdicts (online only)
	serve []float64            // ms from due to response, per request
	vrd   []float64            // ms from due to verdict, per request (online only)
}

// account counts the phase's requests into attempted/failed and checks
// that every acknowledged request is in a sealed epoch.
func (r *runner) account(s *served) {
	for _, x := range s.sent {
		r.attempted++
		if !x.ok() {
			r.failed++
			continue
		}
		seq, ok := s.log.EpochOf[x.RID]
		if !ok {
			r.failed++
			r.gatef("acknowledged %s is in no sealed epoch", x.RID)
			continue
		}
		if s.vs != nil && s.vs[seq].Code != "" {
			r.failed++
		}
	}
}

// online serves n requests open-loop through a pipeline whose auditor
// follows the log, then waits for every verdict.
func (r *runner) online(p *pipeline, reqs [][]byte) (*served, error) {
	s := &served{dir: p.dir, phase: begin()}
	s.sent, s.late = drive(p.url, reqs, onlineRate, r.conns)
	if _, err := p.finish(); err != nil {
		return nil, err
	}
	s.end()
	s.Requests = len(reqs)
	var err error
	if s.log, err = readSealed(p.dir); err != nil {
		return nil, err
	}
	aud := p.aud.Load()
	s.stats, s.vs = aud.Status().Stats, p.vlog.snapshot()
	for seq, v := range s.vs {
		if v.Code != "" {
			r.gatef("honest epoch %d graded %s", seq, v.Code)
		}
	}
	for _, x := range s.sent {
		if !x.ok() {
			s.serve, s.vrd = append(s.serve, failedMS), append(s.vrd, failedMS)
			continue
		}
		s.serve = append(s.serve, ms(x.Done-x.Due))
		v, ok := s.vs[s.log.EpochOf[x.RID]]
		if !ok || v.Code != "" {
			s.vrd = append(s.vrd, failedMS)
			continue
		}
		s.vrd = append(s.vrd, ms(v.At-x.Due))
	}
	r.account(s)
	return s, nil
}

// record serves the backlog closed-loop over one connection into a fresh
// log and seals it. One connection keeps the log's order, and so its epoch
// boundaries and memo keys, the same on every run of a seed.
func (r *runner) record(reqs [][]byte, tr *tracer) (*served, error) {
	dir := r.newDir()
	s := &served{dir: dir, phase: begin()}
	p, err := newPipeline(r.w, dir, r.seed, tr, false)
	if err != nil {
		return nil, err
	}
	s.sent, s.late = drive(p.url, reqs, 0, 1)
	if _, err := p.finish(); err != nil {
		return nil, err
	}
	s.end()
	s.Requests = len(reqs)
	if s.log, err = readSealed(dir); err != nil {
		return nil, err
	}
	for _, x := range s.sent {
		if x.ok() {
			s.serve = append(s.serve, ms(x.Done-x.Due))
		} else {
			s.serve = append(s.serve, failedMS)
		}
	}
	r.account(s)
	return s, nil
}

// audited is a run of catch-up passes over one sealed log.
type audited struct {
	phase
	passes []pass
	vrd    []timing // per pass: ms from the pass's start to each request's epoch verdict
}

// verdicts is the median over passes of each pass's verdict p50 and p99.
// Within a pass, every request waits on the same sequence of epoch audits,
// so pooling passes would let one slow pass set the tail.
func (a *audited) verdicts() (p50, p99 float64) { return medians(a.vrd) }

// onlineVerdicts is the median over windows of verdictWindow requests of
// each window's verdict p50 and p99, so that a few seconds of
// interference from other tenants of a shared host cannot set the tail.
func onlineVerdicts(ss []*served) (p50, p99 float64, ws []timing) {
	for _, s := range ss {
		ws = append(ws, windows(s.vrd, verdictWindow)...)
	}
	p50, p99 = medians(ws)
	return p50, p99, ws
}

// catchUps repeats fresh catch-up audits of the log for at least seconds
// (and at least min passes), checking each accepts every epoch and that
// all agree on Stats.
func (r *runner) catchUps(s *served, tr *tracer, seconds float64, min int) (*audited, error) {
	a := &audited{phase: begin()}
	for len(a.passes) < min || ms(now()-a.Start) < seconds*1000 {
		ps, err := catchUp(r.w, s.dir, tr, "")
		if err != nil {
			return nil, err
		}
		if ps.Epochs != len(s.log.Manifests) {
			return nil, fmt.Errorf("catch-up graded %d of %d epochs", ps.Epochs, len(s.log.Manifests))
		}
		if len(a.passes) > 0 && ps.Stats != a.passes[0].Stats {
			r.gatef("catch-up passes disagree on Stats: %+v vs %+v", ps.Stats, a.passes[0].Stats)
		}
		var vrd []float64
		for _, m := range s.log.Manifests {
			v := ps.Verdicts[m.Seq]
			if v.Code != "" {
				r.gatef("honest epoch %d graded %s", m.Seq, v.Code)
			}
			for i := 0; i < m.Requests; i++ {
				vrd = append(vrd, ms(v.At-ps.Start))
			}
		}
		a.vrd = append(a.vrd, summarize(vrd))
		a.Requests += ps.Stats.Requests
		a.passes = append(a.passes, ps)
	}
	a.end()
	return a, nil
}

func (a *audited) rps() []float64 {
	out := make([]float64, len(a.passes))
	for i, p := range a.passes {
		out[i] = float64(p.Stats.Requests) / (p.End - p.Start).Seconds()
	}
	return out
}

// sessions runs the online workload for seconds in all: each session is a
// fresh pipeline serving the same open-loop stream for at most
// onlineSession seconds. A longer single session would measure a log that
// keeps growing (every follower poll lists all sealed epochs), so longer
// runs repeat sessions instead.
func (r *runner) sessions(seconds float64, tr *tracer) ([]*served, error) {
	n := max(1, int(math.Round(seconds/onlineSession)))
	reqs, err := r.bodies(int(onlineRate * seconds / float64(n)))
	if err != nil {
		return nil, err
	}
	var out []*served
	for i := 0; i < n; i++ {
		p, err := newPipeline(r.w, r.newDir(), r.seed, tr, true)
		if err != nil {
			return nil, err
		}
		s, err := r.online(p, reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cost sums the sessions' CPU time and requests.
func cost(ss []*served) (cpu time.Duration, reqs int) {
	for _, s := range ss {
		cpu, reqs = cpu+s.CPU, reqs+s.Requests
	}
	return cpu, reqs
}

// endToEnd runs the untraced measurement and reports every end-to-end
// metric.
func (r *runner) endToEnd() error {
	var setups []float64
	var ss []*served // the measured logs
	var rps []float64
	var cpu time.Duration
	var cpuReqs int
	var v50, v99 float64
	var vnote string
	if r.w.online {
		for i := 0; i < onlineSetups; i++ {
			syncDir(r.work)
			time.Sleep(setupGap)
			t := now()
			p, err := newPipeline(r.w, r.newDir(), r.seed, nil, true)
			if err != nil {
				return err
			}
			setups = append(setups, (now() - t).Seconds())
			p.abort()
		}
		var err error
		if ss, err = r.sessions(r.seconds, nil); err != nil {
			return err
		}
		for _, s := range ss {
			a, err := r.catchUps(s, nil, ratePassSeconds/float64(len(ss)), 1)
			if err != nil {
				return err
			}
			if a.passes[0].Stats != s.stats {
				r.gatef("follower and catch-up Stats disagree: %+v vs %+v", s.stats, a.passes[0].Stats)
			}
			rps = append(rps, a.rps()...)
		}
		cpu, cpuReqs = cost(ss)
		var ws []timing
		v50, v99, ws = onlineVerdicts(ss)
		vnote = fmt.Sprintf("from the scheduled send; median over %d windows of %d requests; first window: %s", len(ws), verdictWindow, ws[0])
	} else {
		reqs, err := r.bodies(r.w.backlog)
		if err != nil {
			return err
		}
		var s *served
		var serve []float64
		for i := 0; i < backlogSetups; i++ {
			if s, err = r.record(reqs, nil); err != nil {
				return err
			}
			setups = append(setups, s.wall().Seconds())
			serve = append(serve, s.serve...)
		}
		s.serve = serve
		ss = []*served{s}
		a, err := r.catchUps(s, nil, r.seconds, 1)
		if err != nil {
			return err
		}
		s.stats = a.passes[0].Stats
		rps, cpu, cpuReqs = a.rps(), a.CPU, a.Requests
		v50, v99 = a.verdicts()
		vnote = fmt.Sprintf("from the pass's start; median over %d passes; first pass: %s", len(a.passes), a.vrd[0])
	}
	var serve []float64
	for _, s := range ss {
		for _, w := range windows(s.serve, serveWindow) {
			serve = append(serve, w.P50)
		}
	}
	log := ss[len(ss)-1].log
	sort.Float64s(rps)
	r.add("setup_s", "s", median(setups), "median of %d set-ups", len(setups))
	r.add("cpu_ms_per_req", "ms", ms(cpu)/float64(cpuReqs), "%d requests", cpuReqs)
	r.add("advice_bytes_per_req", "B", float64(log.adviceBytes())/float64(log.Requests), "%d bytes over %d requests", log.adviceBytes(), log.Requests)
	r.add("peak_rss_mb", "MiB", peakRSSMiB(), "process high-water mark")
	r.note("serve_p50_ms", "ms", median(serve), "median over %d windows of %d requests of the window's median; all: %s",
		len(serve), serveWindow, summarize(concat(ss)))
	r.add("verdict_p50_ms", "ms", v50, "%s", vnote)
	r.add("verdict_p99_ms", "ms", v99, "the same medians, of each p99")
	r.add("audit_rps", "req/s", median(rps), "median of %d catch-up passes of %d requests (min %.0f, max %.0f)",
		len(rps), log.Requests, rps[0], rps[len(rps)-1])
	for _, s := range ss {
		if err := r.gate(s, s.stats); err != nil {
			return err
		}
	}
	return nil
}

func concat(ss []*served) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.serve...)
	}
	return out
}

// gate is the correctness check run outside the timed phase: a traced
// catch-up audit must agree with the untraced one, and a tampered copy of
// one sealed epoch must be rejected with its expected code.
func (r *runner) gate(s *served, untraced verifier.Stats) error {
	ps, err := catchUp(r.w, s.dir, new(tracer), "")
	if err != nil {
		r.gatef("traced catch-up: %v", err)
		return nil
	}
	if ps.Epochs != len(s.log.Manifests) {
		r.gatef("traced catch-up graded %d of %d epochs", ps.Epochs, len(s.log.Manifests))
	}
	if ps.Stats != untraced {
		r.gatef("traced and untraced audits disagree on Stats: %+v vs %+v", ps.Stats, untraced)
	}
	for _, x := range s.sent {
		if x.ok() && ps.Verdicts[s.log.EpochOf[x.RID]].Code != "" {
			r.gatef("acknowledged %s lies in an epoch that was not accepted", x.RID)
		}
	}
	return r.tamper(s)
}

// syncDir commits dir's pending metadata, so that a set-up timed next does
// not wait on the filesystem journal for work done before it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort: an unsynced journal only slows the next set-up
		d.Close()
	}
}

func fmtValue(v float64) string {
	if math.Abs(v) >= 1e6 || (v != 0 && math.Abs(v) < 1e-3) {
		return fmt.Sprintf("%.6g", v)
	}
	return fmt.Sprintf("%.4f", v)
}

func environment(dir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s epochlog-fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(dir))
}
