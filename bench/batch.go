package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// batch is one set-up plus one timed pass over a workload's ops. A run
// repeats batches until its time is spent, cycling through the input
// variants generated from its seed: the deterministic outcome pools the
// first batch of each variant, every later batch must repeat its
// variant's outcome exactly, and host timings are medians over batches.
type batch struct {
	start, workStart time.Time
	alloc0           uint64

	setup time.Duration // fresh state: testbed or server, deploy, warm-up, reference run
	work  time.Duration // the timed ops
	alloc uint64        // bytes allocated during the timed ops

	ops    int64 // ops attempted
	good   int64 // ops that succeeded
	failed int64 // ops that ended in an outcome the workload does not expect

	// lat holds one latency per successful op, in ms: modeled for the
	// simulator workloads and gateway-http, host wall time for live-genome
	// (hostLat).
	lat     []float64
	hostLat bool
	// offered and served count each tenant's arrivals and successes, for
	// workloads with tenants.
	offered, served map[string]float64

	// counts holds raw layer counters over the timed ops, by name.
	counts map[string]float64
	// det holds every outcome that must repeat exactly for the batch's inputs.
	det map[string]float64
}

// variants is how many input sets a run cycles through.
const variants = 3

func newBatch() *batch {
	return &batch{start: time.Now(), counts: map[string]float64{}, det: map[string]float64{}}
}

// beginWork ends set-up and starts the timed ops.
func (b *batch) beginWork() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.alloc0 = ms.TotalAlloc
	b.workStart = time.Now()
	b.setup = b.workStart.Sub(b.start)
}

// endWork stops the clock on the timed ops.
func (b *batch) endWork() {
	b.work = time.Since(b.workStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.alloc = ms.TotalAlloc - b.alloc0
}

// finish copies the batch's deterministic outcome into det: op and
// tenant counts, modeled latency percentiles, and the layer counters.
func (b *batch) finish() {
	b.det["ops"] = float64(b.ops)
	b.det["good"] = float64(b.good)
	b.det["failed"] = float64(b.failed)
	for t, n := range b.offered {
		b.det["offered."+t] = n
		b.det["served."+t] = b.served[t]
	}
	if !b.hostLat {
		b.det["modeled_ms_p50"] = percentile(b.lat, 0.50)
		b.det["modeled_ms_p99"] = percentile(b.lat, 0.99)
		b.det["modeled_ms_sum"] = sum(b.lat)
	}
	for k, v := range b.counts {
		b.det[k] = v
	}
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads computed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// segLen is the host-latency segment: each segment's p99 leaves 10
// samples beyond it, and the run reports the median across segments, so a
// single GC pause moves one segment rather than the metric.
const segLen = 1000

// segmentPercentile splits the ops of every batch, in order, into
// consecutive segments of segLen and returns the median of the segments'
// q-quantiles. A run with fewer than segLen ops forms one segment.
func segmentPercentile(bs []*batch, q float64) float64 {
	var all []float64
	for _, b := range bs {
		all = append(all, b.lat...)
	}
	if len(all) < segLen {
		return percentile(all, q)
	}
	var per []float64
	for i := 0; i+segLen <= len(all); i += segLen {
		per = append(per, percentile(all[i:i+segLen], q))
	}
	return median(per)
}
