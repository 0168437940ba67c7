// Package workload generates the request streams of the paper's evaluation
// (§6, "Workloads"): read-heavy (90% reads), write-heavy (90% writes), and
// mixed (50/50) streams for the MOTD and stack-dump applications, and the
// Wikipedia-derived 25% create / 15% comment / 60% render mix for the wiki.
//
// Generators are deterministic in their seed. Value pools are finite so that
// distinct requests repeat — repeats are what give batched re-execution its
// deduplication opportunities, as in real web workloads (§2.3).
package workload

import (
	"fmt"
	"math/rand"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
)

// Mix names a read/write mix from the paper.
type Mix string

const (
	// ReadHeavy is 90% reads, 10% writes.
	ReadHeavy Mix = "90% reads"
	// WriteHeavy is 90% writes, 10% reads.
	WriteHeavy Mix = "90% writes"
	// Mixed is 50% reads, 50% writes.
	Mixed Mix = "mixed"
)

func (m Mix) writeFraction() float64 {
	switch m {
	case ReadHeavy:
		return 0.10
	case WriteHeavy:
		return 0.90
	case Mixed:
		return 0.50
	}
	panic(fmt.Sprintf("workload: unknown mix %q", m))
}

var days = []string{"mon", "tue", "wed", "thu", "fri", "sat", "sun"}

var messages = []string{
	"ship it",
	"the build is green",
	"remember to audit",
	"trust, but verify",
	"read the trace",
	"cache invalidation day",
}

// MOTD generates n requests against the message-of-the-day application:
// reads are {"op":"get","day":d}; writes set either the always-message or a
// particular day's message.
func MOTD(n int, mix Mix, seed int64) []server.Request {
	rng := rand.New(rand.NewSource(seed))
	wf := mix.writeFraction()
	reqs := make([]server.Request, n)
	for i := range reqs {
		var in value.V
		if rng.Float64() < wf {
			if rng.Float64() < 0.5 {
				in = value.Map("op", "set", "scope", "always", "msg", messages[rng.Intn(len(messages))])
			} else {
				in = value.Map("op", "set", "scope", "day",
					"day", days[rng.Intn(len(days))],
					"msg", messages[rng.Intn(len(messages))])
			}
		} else {
			in = value.Map("op", "get", "day", days[rng.Intn(len(days))])
		}
		reqs[i] = server.Request{RID: core.RID(fmt.Sprintf("r%04d", i)), Input: in}
	}
	return reqs
}

// StacksOptions tunes the stack-dump stream beyond the paper's defaults.
type StacksOptions struct {
	// NewDumpFraction is the share of write (report) requests that submit a
	// previously unseen dump; the paper uses 10%.
	NewDumpFraction float64
	// ListFraction is the share of read requests that are list requests
	// (the rest are count requests). Lists fan out one handler per known
	// digest, so they dominate verification cost when frequent.
	ListFraction float64
}

// DefaultStacksOptions matches the paper's workload description.
func DefaultStacksOptions() StacksOptions {
	return StacksOptions{NewDumpFraction: 0.10, ListFraction: 0.20}
}

// Stacks generates n requests against the stack-dump application. Write
// requests report dumps (10% new, 90% previously reported, per §6); read
// requests are counts and lists.
func Stacks(n int, mix Mix, seed int64, opts StacksOptions) []server.Request {
	rng := rand.New(rand.NewSource(seed))
	wf := mix.writeFraction()
	var known []string
	dump := func() string {
		if len(known) == 0 || rng.Float64() < opts.NewDumpFraction {
			d := fmt.Sprintf("panic: goroutine %d [running]: main.f%d()", rng.Intn(1<<20), rng.Intn(1<<20))
			known = append(known, d)
			return d
		}
		return known[rng.Intn(len(known))]
	}
	reqs := make([]server.Request, n)
	for i := range reqs {
		rid := fmt.Sprintf("r%04d", i)
		var in value.V
		switch {
		case rng.Float64() < wf:
			in = value.Map("op", "report", "reqid", rid, "dump", dump())
		case rng.Float64() < opts.ListFraction:
			in = value.Map("op", "list", "reqid", rid)
		default:
			in = value.Map("op", "count", "reqid", rid, "dump", dump())
		}
		reqs[i] = server.Request{RID: core.RID(rid), Input: in}
	}
	return reqs
}

// For generates n requests of app's paper workload at the given mix (the
// wiki's mix is fixed, so mix is ignored there). It is the one app-name to
// request-stream table; an unknown name is an error.
func For(app string, mix Mix, n int, seed int64) ([]server.Request, error) {
	switch app {
	case "motd":
		return MOTD(n, mix, seed), nil
	case "stacks":
		return Stacks(n, mix, seed, DefaultStacksOptions()), nil
	case "wiki":
		return Wiki(n, seed), nil
	case "feeds":
		return Feeds(n, mix, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown app %q", app)
}

// Repeats is app's fixed pool of recurring request shapes: read-only
// inputs, byte-identical every time they recur, the steady-state traffic
// that gives cross-epoch deduplicated re-execution its cache hits. The
// shapes are read-only on purpose — a recurring write would keep moving the
// carried state, so the group's input closure would never reach the fixed
// point the memo cache keys on.
func Repeats(app string) ([]value.V, error) {
	switch app {
	case "", "motd":
		return []value.V{
			value.Map("op", "get", "day", "mon"),
			value.Map("op", "get", "day", "tue"),
			value.Map("op", "get", "day", "wed"),
			value.Map("op", "get", "day", "thu"),
		}, nil
	case "stacks":
		return []value.V{
			value.Map("op", "count", "reqid", "repeat", "dump", "panic: goroutine 1 [running]: main.f1()"),
			value.Map("op", "count", "reqid", "repeat", "dump", "panic: goroutine 2 [running]: main.f2()"),
		}, nil
	case "wiki":
		return []value.V{
			value.Map("op", "render", "reqid", "repeat", "id", "page-00"),
			value.Map("op", "render", "reqid", "repeat", "id", "page-01"),
			value.Map("op", "render", "reqid", "repeat", "id", "page-02"),
		}, nil
	case "feeds":
		// The feeds pool is deliberately wide: each board's view is a
		// distinct request shape whose assembly cost recurs every epoch, so
		// the pool width sets how much per-epoch re-execution the memo cache
		// gets to deduplicate.
		pool := make([]value.V, feedsRepeatBoards)
		for i := range pool {
			pool[i] = value.Map("op", "view", "board", fmt.Sprintf("board-%02d", i))
		}
		return pool, nil
	}
	return nil, fmt.Errorf("workload: no recurring shapes for app %q", app)
}

// feedsRepeatBoards is how many distinct boards the feeds recurring pool
// spans (a subset of the Feeds generator's board pool).
const feedsRepeatBoards = 24

// WithRepeats rewrites a deterministic fraction of reqs to app's recurring
// shapes, cycling through the pool so the recurring sub-stream repeats
// bit-for-bit across epochs. RIDs are left alone — recurrence is about the
// request's observable input, and the audit's memo keys exclude raw RIDs.
func WithRepeats(reqs []server.Request, app string, frac float64, seed int64) ([]server.Request, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("workload: repeat fraction %v outside [0,1]", frac)
	}
	if frac == 0 {
		return reqs, nil
	}
	pool, err := Repeats(app)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]server.Request, len(reqs))
	copy(out, reqs)
	next := 0
	for i := range out {
		if rng.Float64() < frac {
			out[i].Input = pool[next%len(pool)]
			next++
		}
	}
	return out, nil
}

// Feeds generates n requests against the dashboard-feeds application:
// reads are {"op":"view","board":b} polls over a finite board pool, writes
// pin a notice to a board. Views dominate real dashboard traffic, which is
// what makes this the steady-state workload of the memo experiments.
func Feeds(n int, mix Mix, seed int64) []server.Request {
	rng := rand.New(rand.NewSource(seed))
	wf := mix.writeFraction()
	nboards := 32
	board := func() string { return fmt.Sprintf("board-%02d", rng.Intn(nboards)) }
	reqs := make([]server.Request, n)
	for i := range reqs {
		var in value.V
		if rng.Float64() < wf {
			in = value.Map("op", "pin", "board", board(),
				"note", messages[rng.Intn(len(messages))])
		} else {
			in = value.Map("op", "view", "board", board())
		}
		reqs[i] = server.Request{RID: core.RID(fmt.Sprintf("r%04d", i)), Input: in}
	}
	return reqs
}

// Wiki generates n requests with the paper's mix: 25% page creations, 15%
// comment creations, 60% render requests, over a finite page-id pool so that
// renders hit both the cache and the store.
func Wiki(n int, seed int64) []server.Request {
	rng := rand.New(rand.NewSource(seed))
	npages := 40
	pageID := func() string { return fmt.Sprintf("page-%02d", rng.Intn(npages)) }
	reqs := make([]server.Request, n)
	for i := range reqs {
		rid := fmt.Sprintf("r%04d", i)
		var in value.V
		switch r := rng.Float64(); {
		case r < 0.25:
			in = value.Map("op", "create", "reqid", rid,
				"id", pageID(),
				"title", fmt.Sprintf("Title %d", rng.Intn(64)),
				"content", fmt.Sprintf("Lorem ipsum %d dolor sit amet.", rng.Intn(64)))
		case r < 0.40:
			in = value.Map("op", "comment", "reqid", rid,
				"page", pageID(),
				"text", fmt.Sprintf("comment %d", rng.Intn(128)))
		default:
			in = value.Map("op", "render", "reqid", rid, "id", pageID())
		}
		reqs[i] = server.Request{RID: core.RID(rid), Input: in}
	}
	return reqs
}
