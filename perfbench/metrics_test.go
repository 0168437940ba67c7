package main

import (
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{10000, 999, true}, // rank 9990, 10 beyond
		{9999, 990, true},  // p99.9 would leave 9
		{1000, 990, true},  // rank 990, 10 beyond
		{999, 950, true},   // p99 would leave 9
		{40, 750, true},    // rank 30, 10 beyond
		{20, 500, true},    // rank 10, 10 beyond
		{19, 0, false},     // even the median leaves 9
		{0, 0, false},
	} {
		got, ok := tailOf(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailOf(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.TailPM != 990 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if !strings.Contains(s.String(), "p99 990.000 ms (n=1000)") {
		t.Errorf("String() = %q does not name the tail and the sample count", s)
	}
	if few := summarize([]float64{3, 1, 2}); few.P50 != 2 || few.TailPM != 0 || !strings.Contains(few.String(), "too few") {
		t.Errorf("summarize of 3 samples = %+v, %q", few, few)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{ms(10, 20), ms(50, 60)}, 80 * time.Millisecond},
		// Overlapping children (parallel workers) count once; parts outside
		// the parent do not count.
		{"overlap and overhang", []interval{ms(20, 40), ms(10, 30), ms(90, 120), ms(-5, 5)}, 55 * time.Millisecond},
		{"nested", []interval{ms(10, 50), ms(20, 30)}, 60 * time.Millisecond},
		{"covering", []interval{ms(-10, 200)}, 0},
		{"outside", []interval{ms(100, 150)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{53, 60}
	if v := r.Value(); v < 0.883 || v > 0.884 {
		t.Errorf("Value() = %v, want 53/60", v)
	}
	if got := r.String(); !strings.Contains(got, "(53 / 60)") {
		t.Errorf("String() = %q does not show its base", got)
	}
	empty := ratio{0, 0}
	if empty.Value() != 0 || !strings.Contains(empty.String(), "(0 / 0)") {
		t.Errorf("empty ratio: %v, %q", empty.Value(), empty)
	}
}

func TestWindows(t *testing.T) {
	p50s := func(ws []timing) []float64 {
		var out []float64
		for _, w := range ws {
			out = append(out, w.P50)
		}
		return out
	}
	got := p50s(windows([]float64{1, 2, 3, 10, 30, 20, 5}, 3))
	if len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Errorf("short tail window should be dropped: got %v", got)
	}
	got = p50s(windows([]float64{1, 2, 3, 6, 5}, 3))
	if len(got) != 2 || got[1] != 5 {
		t.Errorf("tail window of at least half a window should count: got %v", got)
	}
	if got := p50s(windows([]float64{4, 1}, 5)); len(got) != 1 || got[0] != 1 {
		t.Errorf("fewer samples than half a window should still give one window: got %v", got)
	}
	ws := windows([]float64{1, 2, 3, 40, 50, 60, 7, 8, 9}, 3)
	if p50, p99 := medians(ws); p50 != 8 || p99 != 9 {
		t.Errorf("medians = %v, %v; want the median window's p50 8 and p99 9", p50, p99)
	}
}
