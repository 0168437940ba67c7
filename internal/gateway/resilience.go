package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/netfault"
)

// Tuning bounds the gateway's resilience machinery. The zero value means
// defaults; every knob has one.
type Tuning struct {
	// PerTryTimeout bounds one proxied attempt (default 2s). This is what
	// turns a blackholed backend into a classified, breaker-countable
	// failure instead of a hung client.
	PerTryTimeout time.Duration
	// RetryBudget caps stored retry tokens (default 16); RetryBudgetRatio
	// is the fraction of proxied requests that earn a token (default 0.2,
	// i.e. retries may add at most ~20% load on top of offered traffic).
	RetryBudget      float64
	RetryBudgetRatio float64
	// BreakerFailures consecutive transport failures open a shard's
	// circuit (default 5); BreakerOpenFor is the open window before a
	// half-open probe (default 1s).
	BreakerFailures int
	BreakerOpenFor  time.Duration
	// Now is the clock the breakers measure their open window on
	// (default time.Now). A replayed scenario passes a request-indexed
	// clock so its fast-fail/half-open decisions do not depend on how
	// long each try took on the wall.
	Now func() time.Time
	// HedgeAfter, when >0, races a second identical GET against any
	// health/status probe still unanswered after this long — idempotent
	// requests only, first answer wins.
	HedgeAfter time.Duration
	// RetryAfter is the hint stamped on gateway-degraded 503s (default 1s).
	RetryAfter time.Duration
	// Backoff shapes the /invoke retries: Attempts bounds the tries
	// including the first (default 3), Base and Max the delays (default
	// 10ms, 250ms). Only provably-unsent requests are ever retried —
	// netfault.ClassRetryable — because /invoke is not idempotent.
	Backoff iofault.Backoff
}

func (t Tuning) withDefaults() Tuning {
	if t.PerTryTimeout <= 0 {
		t.PerTryTimeout = 2 * time.Second
	}
	if t.Backoff.Attempts <= 0 {
		t.Backoff.Attempts = 3
	}
	if t.RetryAfter <= 0 {
		t.RetryAfter = time.Second
	}
	if t.Backoff.Base <= 0 {
		t.Backoff.Base = 10 * time.Millisecond
	}
	if t.Backoff.Max <= 0 {
		t.Backoff.Max = 250 * time.Millisecond
	}
	if t.Now == nil {
		t.Now = time.Now
	}
	return t
}

// proxied is one backend response buffered in full. Buffering before
// writing to the client is what keeps a mid-body connection cut from
// tearing an already-committed 200: a truncated read surfaces here as a
// transport failure and the client gets a clean 503 instead.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// maxProxyBody bounds one buffered backend response.
const maxProxyBody = 4 << 20

// forward proxies one /invoke body to shard s with per-try timeouts,
// classified retries under the global budget, and breaker accounting.
func (g *Gateway) forward(ctx context.Context, s int, raw []byte) (*proxied, error) {
	g.budget.earn()
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := g.tryOnce(ctx, s, raw)
		if err == nil {
			g.breakers[s].onSuccess()
			return res, nil
		}
		g.breakers[s].onFailure()
		lastErr = err
		// The ladder decides: only a provably-unsent request may go again.
		if netfault.Classify(err) != netfault.ClassRetryable {
			return nil, err
		}
		if attempt+1 >= g.tuning.Backoff.Attempts || ctx.Err() != nil {
			return nil, err
		}
		if !g.budget.spend() {
			g.count(s, func(c *ShardCounters) { c.BudgetDenied++ })
			return nil, err
		}
		g.count(s, func(c *ShardCounters) { c.Retries++ })
		if err := g.tuning.Backoff.Wait(ctx, attempt); err != nil {
			return nil, lastErr
		}
	}
}

// tryOnce performs one bounded proxy attempt and buffers the response.
func (g *Gateway) tryOnce(ctx context.Context, s int, raw []byte) (*proxied, error) {
	tctx, cancel := context.WithTimeout(ctx, g.tuning.PerTryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, g.backend(s)+"/invoke", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		// Status arrived, body did not: the backend executed the request
		// but the link died mid-response. Ambiguous — never retried.
		return nil, &netfault.FaultError{
			Op: "partial-body", Call: netfault.CallRequest, Target: g.backend(s),
			Forwarded: true, Err: err,
		}
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// degrade answers a client whose shard cannot be reached: 503 with a
// Retry-After hint. One dark shard degrades only its own keyspace — the
// caller can retry after the hint, and every other shard keeps serving.
func (g *Gateway) degrade(w http.ResponseWriter, s int, why string) {
	w.Header().Set(ShardHeader, strconv.Itoa(s))
	w.Header().Set("Retry-After", strconv.Itoa(int((g.tuning.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, fmt.Sprintf("shard %d unavailable: %s", s, why), http.StatusServiceUnavailable)
}

// hedgedGet GETs url, racing a second attempt after HedgeAfter when
// hedging is on. Safe only because probes are idempotent GETs; /invoke
// never hedges.
func (g *Gateway) hedgedGet(ctx context.Context, url string) (*http.Response, error) {
	tctx, cancel := context.WithTimeout(ctx, g.tuning.PerTryTimeout)
	get := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(tctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		return g.client.Do(req)
	}
	if g.tuning.HedgeAfter <= 0 {
		resp, err := get()
		if err != nil {
			cancel()
			return nil, err
		}
		// cancel when the caller closes the body
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	type result struct {
		resp *http.Response
		err  error
	}
	ch := make(chan result, 2)
	launch := func() { r, err := get(); ch <- result{r, err} }
	go launch()
	launched, got := 1, 0
	timer := time.NewTimer(g.tuning.HedgeAfter)
	defer timer.Stop()
	var firstErr error
	for got < launched {
		select {
		case <-timer.C:
			if launched == 1 {
				launched++
				g.hedges.Add(1)
				go launch()
			}
		case r := <-ch:
			got++
			if r.err == nil {
				// First answer wins. Closing the winner's body cancels tctx,
				// which aborts the loser; the drainer closes whatever the
				// loser still delivers.
				if got < launched {
					go func() {
						if late := <-ch; late.err == nil {
							late.resp.Body.Close()
						}
					}()
				}
				r.resp.Body = &cancelBody{ReadCloser: r.resp.Body, cancel: cancel}
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	cancel()
	return nil, firstErr
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
