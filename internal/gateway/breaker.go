package gateway

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (traffic flows,
// failures counted), open (fast-fail without touching the backend), and
// half-open (exactly one probe request in flight decides reopen vs close).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerStatus is one shard breaker's state for /status.
type BreakerStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Failures int    `json:"failures,omitempty"`
	// Opened counts closed→open transitions over the breaker's lifetime.
	Opened uint64 `json:"opened,omitempty"`
}

// breaker is one shard's circuit breaker. Only transport-level failures
// trip it: an HTTP response of any status — including the backend's own
// 429s and 500s — proves the shard is reachable and counts as success.
type breaker struct {
	threshold int           // consecutive failures that open the circuit
	openFor   time.Duration // how long open lasts before half-open
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool // half-open: the single probe slot is taken
	opened   uint64
}

func newBreaker(threshold int, openFor time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if openFor <= 0 {
		openFor = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, openFor: openFor, now: now}
}

// allow reports whether a request may proceed. In half-open exactly one
// caller wins the probe slot; everyone else fast-fails until the probe's
// verdict arrives via onSuccess/onFailure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// onSuccess records a reachable backend and closes the circuit from any
// state — including open, so an out-of-band health probe can short-cut
// the open window once the backend is really back.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// onFailure records a transport-level failure: a failed half-open probe
// reopens immediately; the threshold'th consecutive closed-state failure
// opens the circuit.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.opened++
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.opened++
		}
	case breakerOpen:
		// Already open; an out-of-band probe failed. Restart the window so
		// a flapping backend does not half-open early.
		b.openedAt = b.now()
	}
}

func (b *breaker) snapshot(shard int) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{Shard: shard, State: b.state.String(), Failures: b.failures, Opened: b.opened}
}

// retryBudget is the gateway-wide token bucket bounding total retry
// amplification: every proxied request earns ratio tokens (capped), every
// retry spends one. Under a full partition the budget drains and retries
// stop — the gateway degrades instead of tripling the storm.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

func newRetryBudget(max, ratio float64) *retryBudget {
	if max <= 0 {
		max = 16
	}
	if ratio <= 0 {
		ratio = 0.2
	}
	// Start full so a cold gateway can retry its very first request.
	return &retryBudget{tokens: max, max: max, ratio: ratio}
}

func (b *retryBudget) earn() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
