package iofault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The deterministic fault schedule behind every injector in the pipeline:
// the disk Injector here and the network injector in internal/netfault.
// Each injector contributes only a Catalogue — its call type and operator
// table — and how a fired operator misbehaves; arming, matching, skipping,
// firing, healing and counting live here once.

// Catalogue is an injector's operator table.
type Catalogue[C comparable] struct {
	// Pkg prefixes error messages ("iofault", "netfault").
	Pkg string
	// Calls maps each operator to the calls it intercepts.
	Calls map[string][]C
	// Sustained operators fire until healed when a spec leaves times
	// unset — a single fire of them is not a weather pattern.
	Sustained map[string]bool
	// Bursty operators fire in seed-drawn bursts of 1–3 consecutive calls
	// separated by clean gaps of 1–4 calls (a flapping link) instead of
	// one fire per 0–2 call gap.
	Bursty map[string]bool
}

// Names lists the operator catalogue, sorted.
func (c *Catalogue[C]) Names() []string {
	names := make([]string, 0, len(c.Calls))
	for name := range c.Calls {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c *Catalogue[C]) unknown(name string) error {
	return fmt.Errorf("%s: unknown operator %q (have %s)", c.Pkg, name, strings.Join(c.Names(), ", "))
}

// ArmConfig schedules one armed operator.
type ArmConfig struct {
	// Seed derives the gaps between fires; 0 fires on consecutive matching
	// calls.
	Seed int64
	// Times bounds total fires: 0 means 1, negative means until Heal.
	Times int
	// After lets this many matching calls through before the schedule
	// starts (deterministic offset for precision tests).
	After int
	// PathContains restricts matching to calls whose path — for the
	// network injector, whose target — contains the substring ("" matches
	// everything).
	PathContains string
}

// ParseSpec parses an "op", "op:seed", or "op:seed:times" spec against a
// catalogue.
func ParseSpec[C comparable](cat *Catalogue[C], spec string) (string, ArmConfig, error) {
	parts := strings.Split(spec, ":")
	name := parts[0]
	if _, ok := cat.Calls[name]; !ok {
		return "", ArmConfig{}, cat.unknown(name)
	}
	var cfg ArmConfig
	if len(parts) > 3 {
		return "", ArmConfig{}, fmt.Errorf("%s: bad spec %q: want op[:seed[:times]]", cat.Pkg, spec)
	}
	if len(parts) >= 2 {
		seed, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return "", ArmConfig{}, fmt.Errorf("%s: bad seed in spec %q: %v", cat.Pkg, spec, err)
		}
		cfg.Seed = seed
	}
	if len(parts) == 3 {
		times, err := strconv.Atoi(parts[2])
		if err != nil {
			return "", ArmConfig{}, fmt.Errorf("%s: bad times in spec %q: %v", cat.Pkg, spec, err)
		}
		cfg.Times = times
	}
	return name, cfg, nil
}

// Armed is one scheduled operator instance.
type Armed[C comparable] struct {
	name      string
	cfg       ArmConfig
	r         *rand.Rand
	mu        *sync.Mutex // the owning schedule's lock; guards r
	calls     map[C]bool
	bursty    bool
	remaining int // fires left; -1 = unbounded
	skip      int // matching calls to let through before the next fire
	fired     int
	burst     int // a bursty operator's remaining consecutive fires
}

// Name is the operator's catalogue name.
func (a *Armed[C]) Name() string { return a.name }

// Draw returns 1+k with k drawn uniformly from [0, n) off the operator's
// seed, or unseeded when the operator has no seed — how a latency
// operator sizes its stall reproducibly.
func (a *Armed[C]) Draw(n, unseeded int) int {
	if a.r == nil {
		return unseeded
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return 1 + a.r.Intn(n)
}

func (a *Armed[C]) matches(call C, path string) bool {
	if !a.calls[call] {
		return false
	}
	return a.cfg.PathContains == "" || strings.Contains(path, a.cfg.PathContains)
}

// next consumes one matching call and reports whether the operator fires.
func (a *Armed[C]) next() bool {
	if a.remaining == 0 {
		return false
	}
	if a.skip > 0 {
		a.skip--
		return false
	}
	if a.remaining > 0 {
		a.remaining--
	}
	a.fired++
	switch {
	case a.bursty:
		// Consume the burst, then draw the next clean gap and burst length
		// from the seed.
		if a.burst > 0 {
			a.burst--
		} else if a.r != nil {
			a.burst = a.r.Intn(3)
			a.skip = 1 + a.r.Intn(4)
		} else {
			a.burst = 1
			a.skip = 2
		}
	case a.r != nil:
		a.skip = a.r.Intn(3)
	}
	return true
}

// Schedule is a set of armed operators over one catalogue. It is safe for
// concurrent use; the schedule is serialized under one mutex, so a
// single-threaded caller sees a fully deterministic fault history.
type Schedule[C comparable] struct {
	cat *Catalogue[C]

	mu      sync.Mutex
	armed   []*Armed[C]
	counts  map[C]int
	retired map[string]int // fire counts of healed operators
}

// NewSchedule returns an empty fault plan over the catalogue.
func NewSchedule[C comparable](cat *Catalogue[C]) *Schedule[C] {
	return &Schedule[C]{cat: cat, counts: make(map[C]int), retired: make(map[string]int)}
}

// Arm schedules one operator. Unknown names error; arming is additive.
func (s *Schedule[C]) Arm(name string, cfg ArmConfig) error {
	calls, ok := s.cat.Calls[name]
	if !ok {
		return s.cat.unknown(name)
	}
	a := &Armed[C]{name: name, cfg: cfg, mu: &s.mu, bursty: s.cat.Bursty[name], calls: make(map[C]bool, len(calls))}
	for _, c := range calls {
		a.calls[c] = true
	}
	a.remaining = cfg.Times
	if cfg.Times == 0 {
		a.remaining = 1
	}
	a.skip = cfg.After
	if cfg.Seed != 0 {
		a.r = rand.New(rand.NewSource(cfg.Seed))
		a.skip += a.r.Intn(3)
	}
	s.mu.Lock()
	s.armed = append(s.armed, a)
	s.mu.Unlock()
	return nil
}

// ArmSpec arms from an "op[:seed[:times]]" spec with an optional path (or
// target) filter.
func (s *Schedule[C]) ArmSpec(spec, pathContains string) error {
	name, cfg, err := ParseSpec(s.cat, spec)
	if err != nil {
		return err
	}
	cfg.PathContains = pathContains
	if cfg.Times == 0 && s.cat.Sustained[name] {
		cfg.Times = -1
	}
	return s.Arm(name, cfg)
}

// Heal disarms every operator: the fault condition is over. Counters
// survive.
func (s *Schedule[C]) Heal() { s.heal(func(*Armed[C]) bool { return true }) }

// HealTarget disarms only the operators whose filter is exactly
// pathContains — how a scenario heals one shard's partition while another
// stays dark.
func (s *Schedule[C]) HealTarget(pathContains string) {
	s.heal(func(a *Armed[C]) bool { return a.cfg.PathContains == pathContains })
}

func (s *Schedule[C]) heal(drop func(*Armed[C]) bool) {
	s.mu.Lock()
	kept := s.armed[:0]
	for _, a := range s.armed {
		if drop(a) {
			s.retired[a.name] += a.fired
			continue
		}
		kept = append(kept, a)
	}
	s.armed = kept
	s.mu.Unlock()
}

// Counts returns how many calls of each kind the schedule has seen
// (faulted or not), for assertions like "the checkpoint writer fsyncs its
// directory".
func (s *Schedule[C]) Counts() map[C]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[C]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Fired returns fire counts by operator name, armed and healed alike.
func (s *Schedule[C]) Fired() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, a := range s.armed {
		out[a.name] += a.fired
	}
	for name, n := range s.retired {
		out[name] += n
	}
	return out
}

// Fire counts one call and consults the armed operators in arming order.
// It returns the first that fires on this call, or nil to proceed.
func (s *Schedule[C]) Fire(call C, path string) *Armed[C] {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[call]++
	for _, a := range s.armed {
		if a.matches(call, path) && a.next() {
			return a
		}
	}
	return nil
}
