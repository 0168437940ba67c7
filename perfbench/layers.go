package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// traced runs the per-layer measurement. The same work runs twice, for
// half the run each: untraced, then with every wrapper installed, so the
// difference is the tracing overhead. The traced serving and audit spans,
// plus a direct re-timing of the sealed epochs, give the layer metrics.
func (r *runner) traced() error {
	half := r.seconds / 2
	r.tr = &tracer{}
	var (
		s   *served // traced serving
		su  *served // the same work untraced
		ref verifier.Stats
		vs  []epochVerdict
		// the traced audit that keeps a checkpoint: when, and how many epochs
		ckFrom, ckTo time.Duration
		ckEpochs     int
		u, t         phase   // untraced and traced halves, for the overhead
		uv, tv       float64 // their verdict p50s
	)
	if r.w.online {
		// One session per half; onlineSession caps a half's length.
		length := min(half, onlineSession)
		us, err := r.sessions(length, nil)
		if err != nil {
			return err
		}
		ts, err := r.sessions(length, r.tr)
		if err != nil {
			return err
		}
		su, s = us[0], ts[0]
		u, t, ref = su.phase, s.phase, su.stats
		uv, _, _ = onlineVerdicts(us)
		tv, _, _ = onlineVerdicts(ts)
		// The log writes each manifest in place and fsyncs it; the end of
		// that fsync is when the epoch is sealed.
		sealedAt := map[string]time.Duration{}
		for _, sp := range r.tr.named("collector.fs.sync", s.Start, s.End) {
			sealedAt[sp.Key] = sp.End
		}
		for seq, v := range s.vs {
			if at, ok := sealedAt[fmt.Sprintf("ep%06d.manifest", seq)]; ok {
				vs = append(vs, epochVerdict{seq, v, at})
			}
		}
		ckFrom, ckTo, ckEpochs = s.Start, s.End, len(s.vs)
		if err := r.gate(su, su.stats); err != nil {
			return err
		}
	} else {
		reqs, err := r.bodies(r.w.backlog)
		if err != nil {
			return err
		}
		if su, err = r.record(reqs, nil); err != nil {
			return err
		}
		if s, err = r.record(reqs, r.tr); err != nil {
			return err
		}
		au, err := r.catchUps(su, nil, half, 1)
		if err != nil {
			return err
		}
		at, err := r.catchUps(su, r.tr, half, 1)
		if err != nil {
			return err
		}
		if at.passes[0].Stats != au.passes[0].Stats {
			r.gatef("traced and untraced catch-ups disagree on Stats: %+v vs %+v", at.passes[0].Stats, au.passes[0].Stats)
		}
		// Timed passes keep no checkpoint; one more traced pass keeps one,
		// so its cost is measured on this workload too.
		ckpt := filepath.Join(r.newDir(), "checkpoint")
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return err
		}
		ck, err := catchUp(r.w, su.dir, r.tr, filepath.Join(ckpt, "checkpoint.json"))
		if err != nil {
			return err
		}
		ckFrom, ckTo, ckEpochs = ck.Start, ck.End, ck.Epochs
		u, t, ref = au.phase, at.phase, au.passes[0].Stats
		uv, _ = au.verdicts()
		tv, _ = at.verdicts()
		for _, ps := range at.passes {
			for seq, v := range ps.Verdicts {
				vs = append(vs, epochVerdict{seq, v, ps.Start})
			}
		}
		su.stats = au.passes[0].Stats
		if err := r.gate(su, su.stats); err != nil {
			return err
		}
	}
	for _, x := range s.sent {
		r.tr.record(span{Name: "gen.request", Key: x.RID, Start: x.Due, End: x.Done, Status: x.Status})
	}
	r.genLayers(s, su)
	r.serveLayers(s)
	r.auditdLayers(vs, ckFrom, ckTo, ckEpochs)
	if err := r.directLayers(su, ref); err != nil {
		return err
	}
	r.runtimeLayers(u)
	r.add("trace.cpu_overhead_pct", "%", pct(cpuPerReq(t), cpuPerReq(u)), "%.4f ms/req traced vs %.4f untraced", cpuPerReq(t), cpuPerReq(u))
	r.add("trace.verdict_p50_overhead_pct", "%", pct(tv, uv), "%.3f ms traced vs %.3f untraced", tv, uv)
	return nil
}

func cpuPerReq(p phase) float64 { return ms(p.CPU) / float64(p.Requests) }

func pct(traced, untraced float64) float64 { return 100 * (traced/untraced - 1) }

// epochVerdict is one traced verdict with the time its epoch became
// available to the auditor: its manifest's fsync, or the start of a
// catch-up pass over a log sealed earlier.
type epochVerdict struct {
	seq       uint64
	v         verdictAt
	available time.Duration
}

func okCount(s *served) int {
	n := 0
	for _, x := range s.sent {
		if x.ok() {
			n++
		}
	}
	return n
}

func (r *runner) genLayers(s, untraced *served) {
	lt := make([]float64, len(s.late))
	for i, d := range s.late {
		lt[i] = ms(d)
	}
	mode := "open loop"
	if !r.w.online {
		mode = "closed loop: from a connection coming free to its next send"
	}
	st := summarize(lt)
	r.add("gen.late_p99_ms", "ms", st.P99, "%s, %s", st, mode)
	r.add("gen.offered", "count", float64(len(s.sent)), "requests offered by the traced phase, %s", mode)
	var wins []float64
	for _, w := range windows(untraced.serve, serveWindow) {
		wins = append(wins, w.P50)
	}
	r.add("gen.serve_p50_ms", "ms", median(wins), "untraced, from due to response; median over %d windows of %d requests; all: %s",
		len(wins), serveWindow, summarize(untraced.serve))
}

func (r *runner) serveLayers(s *served) {
	tr, from, to := r.tr, s.Start, s.End+1
	served := float64(okCount(s))
	apps := tr.named("apps.serve", from, to)
	byKey := map[string][]interval{}
	var appSum time.Duration
	for _, sp := range apps {
		byKey[sp.Key] = append(byKey[sp.Key], sp.interval())
		appSum += sp.dur()
	}
	handlerOf := map[string]span{}
	var hd []float64
	var busy time.Duration
	shed := 0
	for _, h := range tr.named("collectorhttp.handler", from, to) {
		hd = append(hd, ms(h.dur()))
		busy += selfTime(h.interval(), byKey[h.Key])
		if h.Status == 429 {
			shed++
		}
		if h.Key != "" {
			handlerOf[h.Key] = h
		}
	}
	for _, sp := range apps {
		if h, ok := handlerOf[sp.Key]; ok {
			tr.setParent(sp.ID, h.ID)
		}
	}
	var overhead []float64
	for _, g := range tr.named("gen.request", 0, to) {
		if h, ok := handlerOf[g.Key]; ok {
			tr.setParent(h.ID, g.ID)
		}
	}
	for _, x := range s.sent {
		if h, ok := handlerOf[x.RID]; ok && x.ok() {
			overhead = append(overhead, ms(x.Done-x.Sent-h.dur()))
		}
	}
	ht := summarize(hd)
	r.add("collectorhttp.handler_p50_ms", "ms", ht.P50, "%s", ht)
	r.add("collectorhttp.busy_ms_per_req", "ms", ms(busy)/served, "handler time outside app handlers, incl. commit waits; %g requests", served)
	r.add("collectorhttp.shed429", "count", float64(shed), "of %d handler calls", len(hd))
	ot := summarize(overhead)
	r.add("collectorhttp.client_overhead_p50_ms", "ms", ot.P50, "client latency minus handler time; %s", ot)
	r.add("apps.serve_ms_per_req", "ms", ms(appSum)/served, "%d handler calls over %g requests", len(apps), served)

	var syncs, traceSyncs int
	var syncDur time.Duration
	var written int
	for _, sp := range tr.named("collector.fs.sync", from, to) {
		syncs++
		syncDur += sp.dur()
		if strings.HasSuffix(sp.Key, ".trace") {
			traceSyncs++
		}
	}
	for _, sp := range tr.named("collector.fs.syncdir", from, to) {
		syncs++
		syncDur += sp.dur()
	}
	for _, sp := range tr.named("collector.fs.write", from, to) {
		written += sp.Bytes
	}
	frames := 0
	for _, m := range s.log.Manifests {
		frames += m.Events
	}
	r.add("fs.sync_per_req", "count", float64(syncs)/served, "%s", ratio{float64(syncs), served})
	r.add("fs.sync_ms_per_req", "ms", ms(syncDur)/served, "%d syncs", syncs)
	r.add("fs.write_bytes_per_req", "B", float64(written)/served, "%s", ratio{float64(written), served})
	fr := ratio{float64(frames), float64(traceSyncs)}
	r.add("epochlog.frames_per_sync", "count", fr.Value(), "trace frames per trace-file fsync: %s", fr)
}

func (r *runner) auditdLayers(vs []epochVerdict, ckFrom, ckTo time.Duration, ckEpochs int) {
	var busy, wait time.Duration
	var lag []float64
	for _, e := range vs {
		l := e.v.At - e.available
		busy += e.v.Busy
		wait += l - e.v.Busy
		lag = append(lag, ms(l))
		key := fmt.Sprintf("ep%06d", e.seq)
		lid := r.tr.record(span{Name: "auditd.lag", Key: key, Start: e.available, End: e.v.At})
		bid := r.tr.record(span{Name: "auditd.audit", Key: key, Start: e.v.At - e.v.Busy, End: e.v.At})
		r.tr.setParent(bid, lid)
	}
	var ckpt time.Duration
	for _, call := range []string{"open", "write", "sync", "rename", "syncdir"} {
		for _, sp := range r.tr.named("auditor.fs."+call, ckFrom, ckTo+1) {
			if strings.HasPrefix(sp.Key, "checkpoint") {
				ckpt += sp.dur()
			}
		}
	}
	n := float64(len(vs))
	r.add("auditd.busy_ms_per_epoch", "ms", ms(busy)/n, "Status.LastAudit over %d verdicts", len(vs))
	r.add("auditd.wait_ms_per_epoch", "ms", ms(wait)/n, "epoch available to verdict, minus busy; %d verdicts", len(vs))
	lt := summarize(lag)
	r.add("auditd.lag_p50_ms", "ms", lt.P50, "epoch available to verdict; %s", lt)
	r.add("auditd.checkpoint_ms_per_epoch", "ms", ms(ckpt)/float64(ckEpochs), "checkpoint writes over %d epochs", ckEpochs)
}

// directLayers re-times the layers on the sealed epochs of s by calling
// them directly: epochlog.ReadSealed, advice.UnmarshalBinary and
// MarshalBinary, and verifier.AuditCarry with a traced app and a memo
// cache, epoch after epoch as auditd does. The audits' summed Stats must
// equal ref, auditd's Stats for the same log.
func (r *runner) directLayers(s *served, ref verifier.Stats) error {
	dir := filepath.Join(s.dir, "log")
	spec := tracedSpec(r.w.spec, r.tr, "apps.reexec")
	var read, dec, enc, aud, self, reexec, allocs, calls []float64
	var st verifier.Stats
	var cache *memo.Cache
	epochs := float64(len(s.log.Manifests))
	for pass := 0; pass < directPasses; pass++ {
		var rd, dc, ec, au, sf, rx time.Duration
		var al uint64
		var carry *verifier.CarryState
		cache = memo.NewCache(memoBytes)
		st = verifier.Stats{}
		nCalls := 0
		for _, m := range s.log.Manifests {
			key := fmt.Sprintf("ep%06d", m.Seq)
			t0 := now()
			tr, blob, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
			t1 := now()
			if err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t2 := now()
			adv, err := advice.UnmarshalBinary(blob)
			t3 := now()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("epoch %d advice: %w", m.Seq, err)
			}
			t4 := now()
			_ = adv.MarshalBinary()
			t5 := now()
			app, _ := spec.New()
			cfg := verifier.Config{App: app, Mode: advice.ModeKarousos, Isolation: spec.Isolation,
				Carry: carry, Workers: r.w.auditWorkers, Memo: cache}
			t6 := now()
			es, next, err := verifier.AuditCarry(context.Background(), cfg, tr, adv)
			t7 := now()
			if err != nil {
				return fmt.Errorf("epoch %d audit: %w", m.Seq, err)
			}
			carry = next
			st.Add(es)
			r.tr.record(span{Name: "epochlog.read_sealed", Key: key, Start: t0, End: t1})
			r.tr.record(span{Name: "advice.decode", Key: key, Start: t2, End: t3})
			r.tr.record(span{Name: "advice.encode", Key: key, Start: t4, End: t5})
			aid := r.tr.record(span{Name: "verifier.audit", Key: key, Start: t6, End: t7})
			var kids []interval
			for _, c := range r.tr.named("apps.reexec", t6, t7) {
				r.tr.setParent(c.ID, aid)
				kids = append(kids, c.interval())
				rx += c.dur()
			}
			nCalls += len(kids)
			rd, dc, ec, au = rd+t1-t0, dc+t3-t2, ec+t5-t4, au+t7-t6
			sf += selfTime(interval{t6, t7}, kids)
			al += m1.Mallocs - m0.Mallocs
		}
		if st != ref {
			r.gatef("direct AuditCarry Stats %+v differ from auditd's %+v", st, ref)
		}
		reqs := float64(st.Requests)
		read, dec, enc = append(read, ms(rd)/epochs), append(dec, ms(dc)/epochs), append(enc, ms(ec)/epochs)
		aud, self = append(aud, ms(au)/epochs), append(self, ms(sf)/reqs)
		reexec, allocs = append(reexec, ms(rx)/reqs), append(allocs, float64(al)/epochs)
		calls = append(calls, float64(nCalls))
	}
	note := fmt.Sprintf("median of %d direct passes over %d epochs", directPasses, len(s.log.Manifests))
	r.add("epochlog.read_sealed_ms_per_epoch", "ms", median(read), "%s", note)
	r.add("advice.decode_ms_per_epoch", "ms", median(dec), "%s", note)
	r.add("advice.decode_allocs_per_epoch", "count", median(allocs), "%s", note)
	r.add("advice.encode_ms_per_epoch", "ms", median(enc), "%s", note)
	r.add("apps.reexec_ms_per_req", "ms", median(reexec), "%s, %d requests", note, st.Requests)
	r.add("apps.reexec_calls", "count", median(calls), "handler calls per audit of the log; Stats.HandlersRerun=%d", st.HandlersRerun)
	r.add("verifier.audit_ms_per_epoch", "ms", median(aud), "%s", note)
	r.add("verifier.self_ms_per_req", "ms", median(self), "AuditCarry minus the time re-executed handlers cover; %s", note)
	req := float64(st.Requests)
	for _, x := range []struct {
		name string
		r    ratio
	}{
		{"verifier.batch_factor", ratio{req, float64(st.Groups)}},
		{"verifier.handlers_rerun_per_req", ratio{float64(st.HandlersRerun), req}},
		{"verifier.graph_nodes_per_req", ratio{float64(st.GraphNodes), req}},
		{"verifier.graph_edges_per_req", ratio{float64(st.GraphEdges), req}},
	} {
		r.add(x.name, "count", x.r.Value(), "%s", x.r)
	}
	r.add("verifier.requests", "count", req, "requests in one audit of the log: the base of the per-request ratios")
	r.add("verifier.groups", "count", float64(st.Groups), "tag groups in one audit of the log")
	hr := ratio{float64(st.MemoHits), float64(st.MemoHits + st.MemoMisses)}
	r.add("memo.hit_ratio", "1", hr.Value(), "tag groups replayed / probed: %s", hr)
	r.add("memo.probes", "count", hr.Den, "the hit ratio's base")
	r.add("memo.evictions", "count", float64(st.MemoEvictions), "per audit of the log")
	r.add("memo.bytes", "B", float64(cache.Bytes()), "%d entries after one audit of the log", cache.Len())
	return nil
}

func (r *runner) runtimeLayers(u phase) {
	n := float64(u.Requests)
	gc, total, idle := u.rtDelta(2), u.rtDelta(3), u.rtDelta(4)
	share := ratio{gc, total - idle}
	r.add("runtime.allocs_per_req", "count", u.rtDelta(0)/n, "untraced half, %d requests", u.Requests)
	r.add("runtime.alloc_bytes_per_req", "B", u.rtDelta(1)/n, "untraced half, %d requests", u.Requests)
	r.add("runtime.gc_cpu_share", "1", share.Value(), "GC CPU / busy CPU (runtime estimate, s): %s", share)
}
