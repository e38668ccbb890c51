package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileNeverExceedsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var s Sample
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			// Heavy-tailed: the shape that made bucket upper bounds
			// report p99 above the maximum.
			s.Add(math.Exp(rng.NormFloat64() * 2))
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			if p := s.Quantile(q); p > s.Max() {
				t.Fatalf("n=%d q=%v: p=%v > max=%v", n, q, p, s.Max())
			}
		}
	}
}

func TestQuantileKnownDistributions(t *testing.T) {
	// 1..100: the nearest-rank p-quantile is exactly 100·p.
	var u Sample
	for i := 100; i >= 1; i-- {
		u.Add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := u.Quantile(c.q); got != c.want {
			t.Errorf("uniform 1..100 q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	// A constant sample has every quantile equal to the constant.
	var k Sample
	for i := 0; i < 37; i++ {
		k.Add(4.25)
	}
	if k.Quantile(0.5) != 4.25 || k.Quantile(0.99) != 4.25 {
		t.Errorf("constant sample: p50=%v p99=%v", k.Quantile(0.5), k.Quantile(0.99))
	}
	// 99 fast observations and one slow one: p99 is still fast, only
	// p100 sees the outlier.
	var o Sample
	for i := 0; i < 99; i++ {
		o.Add(1)
	}
	o.Add(1000)
	if o.Quantile(0.99) != 1 || o.Quantile(1) != 1000 {
		t.Errorf("outlier sample: p99=%v p100=%v", o.Quantile(0.99), o.Quantile(1))
	}
	// Exponential(1): the sample p50 and p99 sit within 3% of ln 2 and
	// ln 100 at 200k draws.
	rng := rand.New(rand.NewSource(7))
	var e Sample
	for i := 0; i < 200000; i++ {
		e.Add(rng.ExpFloat64())
	}
	for _, c := range []struct{ q, want float64 }{{0.5, math.Ln2}, {0.99, math.Log(100)}} {
		if got := e.Quantile(c.q); math.Abs(got-c.want)/c.want > 0.03 {
			t.Errorf("exponential q=%v: got %v, want ≈%v", c.q, got, c.want)
		}
	}
}

func TestQuantileEmptyAndMerge(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sample must report NaN")
	}
	var a, b Sample
	a.Add(3)
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	if a.Len() != 3 || a.Quantile(0.5) != 2 || a.Max() != 3 {
		t.Fatalf("merge: len=%d p50=%v max=%v", a.Len(), a.Quantile(0.5), a.Max())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestWindowedLatency(t *testing.T) {
	// Three windows with p90s 9, 90 and 19: the median over windows is
	// 19, whatever the one slow window holds.
	o := newOutcome()
	o.latWindows = make([]Sample, 3)
	for i := 1; i <= 10; i++ {
		o.latWindows[0].Add(float64(i))
		o.latWindows[1].Add(float64(10 * i))
		o.latWindows[2].Add(float64(10 + i))
	}
	if got := o.latency(0.9); got != 19 {
		t.Errorf("windowed p90 = %v, want 19", got)
	}
	// Without windows the whole sample is used.
	o.latWindows = nil
	o.lat.Add(4)
	if got := o.latency(0.9); got != 4 {
		t.Errorf("whole-sample p90 = %v, want 4", got)
	}
}
