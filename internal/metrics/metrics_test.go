package metrics

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanMaxCount(t *testing.T) {
	var r Recorder
	if r.Mean() != 0 || r.Max() != 0 || r.Count() != 0 {
		t.Fatal("empty recorder not zero")
	}
	r.Add(time.Second)
	r.Add(3 * time.Second)
	if r.Mean() != 2*time.Second {
		t.Fatalf("Mean = %v", r.Mean())
	}
	if r.Max() != 3*time.Second {
		t.Fatalf("Max = %v", r.Max())
	}
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var r Recorder
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := r.Percentile(0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := r.Percentile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := r.P99(); got != 99*time.Millisecond {
		t.Fatalf("P99 = %v", got)
	}
}

func TestPercentileEmptyAndBadQ(t *testing.T) {
	var r Recorder
	if r.Percentile(0.5) != 0 {
		t.Fatal("empty percentile not 0")
	}
	r.Add(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("q > 1 did not panic")
		}
	}()
	r.Percentile(1.5)
}

func TestPercentileAfterAdd(t *testing.T) {
	var r Recorder
	r.Add(2 * time.Second)
	_ = r.P99()
	r.Add(time.Second) // must re-sort
	if got := r.Percentile(0); got != time.Second {
		t.Fatalf("p0 after late add = %v", got)
	}
}

func TestClamp(t *testing.T) {
	var r Recorder
	r.Add(30 * time.Second)
	r.Add(90 * time.Second)
	r.Clamp(60 * time.Second)
	if r.Max() != 60*time.Second {
		t.Fatalf("Max after clamp = %v", r.Max())
	}
	if got := r.TimeoutRate(60 * time.Second); got != 0.5 {
		t.Fatalf("TimeoutRate = %v, want 0.5", got)
	}
}

func TestTimeoutRateEmpty(t *testing.T) {
	var r Recorder
	if r.TimeoutRate(time.Second) != 0 {
		t.Fatal("empty timeout rate not 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "latency")
	tb.AddRow("Cyc", "1.234s")
	tb.AddRow("WC") // short row padded
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "bench") || !strings.Contains(lines[0], "latency") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "Cyc") || !strings.Contains(lines[2], "1.234s") {
		t.Fatalf("row missing: %q", lines[2])
	}
}

func TestFormatters(t *testing.T) {
	if got := Seconds(1500 * time.Millisecond); got != "1.500s" {
		t.Fatalf("Seconds = %q", got)
	}
	if got := Millis(45*time.Millisecond + 600*time.Microsecond); got != "45.6ms" {
		t.Fatalf("Millis = %q", got)
	}
	if got := MBytes(96_820_000); got != "96.82MB" {
		t.Fatalf("MBytes = %q", got)
	}
	if got := Pct(0.746); got != "74.6%" {
		t.Fatalf("Pct = %q", got)
	}
}

// Property: Percentile is monotone in q and always returns one of the
// samples.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var r Recorder
		set := map[time.Duration]bool{}
		for _, v := range raw {
			d := time.Duration(v)
			r.Add(d)
			set[d] = true
		}
		qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
		var prev time.Duration
		for i, q := range qs {
			p := r.Percentile(q)
			if !set[p] {
				return false
			}
			if i > 0 && p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after Clamp(limit) every sample is <= limit and ordering of
// remaining samples is preserved.
func TestClampProperty(t *testing.T) {
	f := func(raw []uint32, limRaw uint32) bool {
		limit := time.Duration(limRaw%1000 + 1)
		var r Recorder
		for _, v := range raw {
			r.Add(time.Duration(v % 2000))
		}
		r.Clamp(limit)
		s := append([]time.Duration(nil), r.samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for _, v := range s {
			if v > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPercentile(b *testing.B) {
	var r Recorder
	for i := 0; i < 10000; i++ {
		r.Add(time.Duration(i*7919%100000) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(time.Duration(i) * time.Microsecond)
		_ = r.P99()
	}
}

func TestPercentileDoesNotReorderSamples(t *testing.T) {
	var r Recorder
	in := []time.Duration{5, 1, 4, 2, 3}
	for _, d := range in {
		r.Add(d)
	}
	if got := r.Percentile(0.5); got != 3 {
		t.Fatalf("p50 = %v; want 3", got)
	}
	for i, d := range r.samples {
		if d != in[i] {
			t.Fatalf("samples reordered after Percentile: %v; want %v", r.samples, in)
		}
	}
	// Cache must invalidate on Add.
	r.Add(0)
	if got := r.Percentile(0); got != 0 {
		t.Fatalf("min after Add = %v; want 0", got)
	}
}
