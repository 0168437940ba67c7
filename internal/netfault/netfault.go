// Package netfault is the pipeline's injectable network layer: the dual of
// internal/iofault for the wire instead of the disk. Where iofault breaks
// the filesystem underneath the trusted trace, netfault breaks the network
// path between the gateway and its shard collectors — connections refused,
// connections reset after the request left, blackholed links that swallow
// packets until a deadline fires, slow and truncated responses, and
// flapping links that alternate between refusing and passing.
//
// The operator catalogue plugs into iofault's shared fault Schedule: the
// same "op:seed[:times]" spec grammar, and every armed operator fires on a
// deterministic schedule derived from its seed and the sequence of
// matching calls, so a partition scenario replayed with the same seed
// injects byte-identical fault histories.
//
// Two plug points cover both ends of an HTTP hop:
//
//   - Injector.Transport wraps an http.RoundTripper — the gateway's proxy
//     client threads every backend request through the schedule;
//   - Injector.Listener wraps a net.Listener — a collector's serve loop
//     accepts connections that reset, stall, or die mid-response.
//
// The invariant the chaos harness uses this package to enforce is the
// network restatement of iofault's: a network fault must never surface as
// a false accusation, a hang, or lost acknowledged evidence — it is
// retried when provably safe (no request bytes reached the peer), degraded
// around (503 + Retry-After, breaker open, epoch graded Unauditable), or
// surfaced loudly. The Classify ladder is what "provably safe" means: see
// Class.
package netfault

import (
	"fmt"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/iofault"
)

// Call names one interception point; operators declare which calls they
// intercept, and the Injector counts every call by this name.
type Call string

const (
	// CallRequest is one whole client-side HTTP round trip (Transport).
	CallRequest Call = "request"
	// CallAccept is one accepted server-side connection (Listener).
	CallAccept Call = "accept"
)

// Operator names. Each models one network failure class.
const (
	// OpConnRefused fails the round trip before any request byte is sent
	// (dial refused); the accepted server-side connection is closed before
	// any byte is read. Provably safe to retry.
	OpConnRefused = "conn-refused"
	// OpConnReset forwards the request to the peer, then loses the
	// response to a reset — the dangerous half-failure: the peer may have
	// executed the request, the client cannot know. Never safe to retry a
	// non-idempotent request.
	OpConnReset = "conn-reset"
	// OpBlackhole swallows the request without forwarding it and blocks
	// until the caller's context deadline (or the injector's MaxBlock cap)
	// fires — a partitioned link dropping packets. The client sees a
	// timeout, which is ambiguous by definition.
	OpBlackhole = "blackhole"
	// OpSlowResponse delays the response without erroring — latency, the
	// hedging trigger.
	OpSlowResponse = "slow-response"
	// OpPartialBody delivers the response status and headers, then
	// truncates the body halfway — a connection dying mid-transfer.
	OpPartialBody = "partial-body"
	// OpFlap refuses like conn-refused but in seed-derived bursts with
	// clean gaps between them — a flapping link, the retry loop's natural
	// prey.
	OpFlap = "flap"
)

// catalogue is the network operator table. The sustained operators
// default to firing until healed — one fire is not a weather pattern — and
// flap fires in bursts.
var catalogue = &iofault.Catalogue[Call]{
	Pkg: "netfault",
	Calls: map[string][]Call{
		OpConnRefused:  {CallRequest, CallAccept},
		OpConnReset:    {CallRequest, CallAccept},
		OpBlackhole:    {CallRequest, CallAccept},
		OpSlowResponse: {CallRequest, CallAccept},
		OpPartialBody:  {CallRequest, CallAccept},
		OpFlap:         {CallRequest, CallAccept},
	},
	Sustained: map[string]bool{OpFlap: true, OpSlowResponse: true, OpBlackhole: true},
	Bursty:    map[string]bool{OpFlap: true},
}

// FaultError is an injected network failure. Forwarded tells the retry
// ladder whether request bytes may have reached the peer — the property
// that decides whether re-issuing a non-idempotent request is sound.
type FaultError struct {
	Op        string // operator name
	Call      Call   // interception point
	Target    string // host (Transport) or remote address (Listener)
	Forwarded bool   // request bytes may have reached the peer
	Err       error  // underlying errno / sentinel
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netfault: %s on %s %s: %v", e.Op, e.Call, e.Target, e.Err)
}
func (e *FaultError) Unwrap() error { return e.Err }

// Timeout makes a blackhole's error satisfy net.Error's timeout probe, the
// way a real swallowed connection surfaces.
func (e *FaultError) Timeout() bool { return e.Op == OpBlackhole }

// Temporary is retained for net.Error compatibility.
func (e *FaultError) Temporary() bool { return !e.Forwarded }

// Injector wraps transports and listeners with a fault Schedule over the
// network catalogue. Arm, ArmSpec, Heal, HealTarget, Counts and Fired come
// from the schedule, whose PathContains filter matches the call's target.
type Injector struct {
	*iofault.Schedule[Call]
	// MaxBlock caps how long a blackhole stalls when the caller's context
	// has no sooner deadline. <=0 means 1s. Chaos scenarios shrink it so a
	// partitioned run finishes in test time.
	MaxBlock time.Duration
	// SlowFor is the slow-response operator's unit delay; the injected
	// latency is 1–4× this. <=0 means 5ms.
	SlowFor time.Duration
}

// NewInjector returns an empty fault plan.
func NewInjector() *Injector {
	return &Injector{Schedule: iofault.NewSchedule(catalogue)}
}

// maxBlock returns the blackhole stall cap.
func (in *Injector) maxBlock() time.Duration {
	if in.MaxBlock > 0 {
		return in.MaxBlock
	}
	return time.Second
}

// slowFor returns one slow-response delay drawn from the operator's seed.
func (in *Injector) slowFor(a *iofault.Armed[Call]) time.Duration {
	unit := in.SlowFor
	if unit <= 0 {
		unit = 5 * time.Millisecond
	}
	return time.Duration(a.Draw(4, 2)) * unit
}

// errFor builds the FaultError for a fired operator; nil means the
// operator injects behavior (latency) rather than an error.
func errFor(a *iofault.Armed[Call], call Call, target string) *FaultError {
	switch a.Name() {
	case OpConnRefused, OpFlap:
		return &FaultError{Op: a.Name(), Call: call, Target: target, Err: syscall.ECONNREFUSED}
	case OpConnReset:
		return &FaultError{Op: a.Name(), Call: call, Target: target, Forwarded: true, Err: syscall.ECONNRESET}
	case OpBlackhole:
		return &FaultError{Op: a.Name(), Call: call, Target: target, Forwarded: true, Err: syscall.ETIMEDOUT}
	case OpPartialBody:
		return &FaultError{Op: a.Name(), Call: call, Target: target, Forwarded: true, Err: syscall.ECONNRESET}
	}
	return nil
}
