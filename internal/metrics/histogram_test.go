package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(0.001, 2, 10) // bounds 1ms, 2ms, ..., 512ms
	if got := len(h.bounds); got != 10 {
		t.Fatalf("bucket count = %d, want 10", got)
	}
	// One sample per finite bucket, exactly at its upper bound (inclusive).
	for _, ub := range h.bounds {
		h.Observe(ub)
	}
	h.Observe(10) // overflow
	h.Observe(0)  // underflow lands in the first bucket
	if h.Count() != 12 {
		t.Fatalf("count = %d, want 12", h.Count())
	}
	if got := h.Max(); got != 10 {
		t.Fatalf("max = %v, want 10", got)
	}
	if got := h.Min(); got != 0 {
		t.Fatalf("min = %v, want 0", got)
	}
	// Nearest-rank over 12 samples: the underflow sample doubles bucket 0,
	// so rank 6 lands in bucket 4 (bound 0.016); q=1 hits the overflow
	// bucket and reports the observed max.
	if got := h.Quantile(0.5); got != 0.016 {
		t.Fatalf("p50 = %v, want 0.016", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
}

// TestHistogramEdges drives values straddling bucket boundaries through the
// log-based index and checks against a linear-scan reference.
func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0.5, 1.7, 24)
	ref := func(v float64) int {
		b := h.bounds
		for i, ub := range b {
			if v <= ub {
				return i
			}
		}
		return len(b)
	}
	vals := []float64{0.1, 0.5, 0.500001, 1.3}
	for _, ub := range h.bounds {
		vals = append(vals, ub, math.Nextafter(ub, 0), math.Nextafter(ub, math.MaxFloat64))
	}
	vals = append(vals, 1e12)
	for _, v := range vals {
		if got, want := h.bucketOf(v), ref(v); got != want {
			t.Errorf("bucketOf(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	h := NewHistogram(0.25, 2, 3) // bounds 0.25, 0.5, 1
	h.Observe(0.1)
	h.Observe(0.5)
	h.Observe(0.75)
	h.Observe(3)
	var sb strings.Builder
	if err := h.WritePrometheus(&sb, "test_seconds", "A test histogram."); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_seconds A test histogram.
# TYPE test_seconds histogram
test_seconds_bucket{le="0.25"} 1
test_seconds_bucket{le="0.5"} 2
test_seconds_bucket{le="1"} 3
test_seconds_bucket{le="+Inf"} 4
test_seconds_sum 4.35
test_seconds_count 4
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestHistogramNaNDropped(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("NaN was recorded: count = %d", h.Count())
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero min", func() { NewHistogram(0, 2, 4) }},
		{"growth 1", func() { NewHistogram(1, 1, 4) }},
		{"no buckets", func() { NewHistogram(1, 2, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestHistogramObserveZeroAlloc is the zero-alloc regression gate for the
// hot Observe path: long-running servers observe per-event, so a single
// allocation here would dominate the obs self-overhead budget.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(0.001, 2, 20)
	v := 0.0001
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v *= 1.5
		if v > 100 {
			v = 0.0001
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(0.001, 2, 20)
	b.ReportAllocs()
	v := 0.0001
	for i := 0; i < b.N; i++ {
		h.Observe(v)
		v *= 1.3
		if v > 100 {
			v = 0.0001
		}
	}
}

// TestHistogramQuantileEdges pins the quantile estimator's degenerate
// inputs: an empty histogram, a single observation, and a population that
// lives entirely in the overflow bucket.
func TestHistogramQuantileEdges(t *testing.T) {
	// Empty: every quantile is 0, no division or scan underflow.
	h := NewHistogram(0.001, 2, 4)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Single observation: every quantile (including q=0, whose rank clamps
	// to 1) reports that sample's bucket bound.
	h = NewHistogram(0.001, 2, 4) // bounds 1ms 2ms 4ms 8ms
	h.Observe(0.003)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0.004 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 0.004", q, got)
		}
	}

	// All values past the last bound: quantiles report the observed max
	// rather than a fictitious +Inf bound.
	h = NewHistogram(0.001, 2, 4)
	for _, v := range []float64{5, 7, 11} {
		h.Observe(v)
	}
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := h.Quantile(q); got != 11 {
			t.Fatalf("overflow Quantile(%v) = %v, want observed max 11", q, got)
		}
	}
}
