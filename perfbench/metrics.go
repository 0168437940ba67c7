package main

import (
	"fmt"
	"sort"
	"time"
)

// tailPermille lists the tail percentiles a timing may be reported at, in
// per-mille, highest first.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// rankOf is the 1-based nearest-rank position of the p-per-mille percentile
// among n sorted samples.
func rankOf(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailOf returns the highest percentile (per-mille) that leaves at least ten
// samples beyond it, or false when even the median does not.
func tailOf(n int) (int, bool) {
	for _, p := range tailPermille {
		if n-rankOf(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// timing summarises one latency sample set: median, the tail percentile the
// sample supports, and the sample count. Values are in milliseconds.
type timing struct {
	N      int
	P50    float64
	P99    float64
	TailPM int // per-mille of Tail; 0 when the sample supports no tail
	Tail   float64
}

func summarize(ms []float64) timing {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	at := func(pm int) float64 { return s[rankOf(len(s), pm)-1] }
	t.P50 = at(500)
	t.P99 = at(990)
	if pm, ok := tailOf(len(s)); ok {
		t.TailPM, t.Tail = pm, at(pm)
	}
	return t
}

func (t timing) String() string {
	if t.TailPM == 0 {
		return fmt.Sprintf("p50 %.3f ms (n=%d, too few samples for a tail)", t.P50, t.N)
	}
	return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms (n=%d)", t.P50, float64(t.TailPM)/10, t.Tail, t.N)
}

// median of a sample set (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), 500)-1]
}

// windows splits samples into consecutive windows of w and summarizes
// each; a last window shorter than w/2 is dropped, unless it is the only
// one.
func windows(samples []float64, w int) []timing {
	var out []timing
	for i := 0; i < len(samples); i += w {
		win := samples[i:min(i+w, len(samples))]
		if len(win)*2 < w && i > 0 {
			break
		}
		out = append(out, summarize(win))
	}
	return out
}

// medians is the median over windows of each window's p50 and p99.
func medians(ws []timing) (p50, p99 float64) {
	var a50, a99 []float64
	for _, t := range ws {
		a50, a99 = append(a50, t.P50), append(a99, t.P99)
	}
	return median(a50), median(a99)
}

// ratio is a quotient that keeps its base, so a reader can tell 1/2 from
// 500/1000.
type ratio struct {
	Num, Den float64
}

func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%.6g / %.6g)", r.Value(), r.Num, r.Den)
}

// interval is a half-open time range [Start, End).
type interval struct {
	Start, End time.Duration
}

// selfTime is the parent's duration minus the part of it covered by the
// union of its children's intervals. Children may overlap each other (the
// parallel engine runs handlers on several workers at once) and may stick
// out of the parent; only the covered part of the parent counts once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
