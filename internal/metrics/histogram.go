package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// Histogram is a fixed-size exponential-bucket distribution: bucket i
// covers (min·growth^(i-1), min·growth^i], with one underflow bucket at
// the bottom and one overflow bucket at the top. Observe is O(1) and
// allocation-free, and rendering is O(buckets) — the bounded alternative
// to Recorder, whose exact Percentile path is O(n log n) per call and
// whose memory grows without bound under long runs.
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	bounds   []float64 // ascending upper bounds; len = bucket count - 1
	counts   []uint64  // len(bounds)+1; last is overflow (+Inf)
	count    uint64
	sum      float64
	min, max float64 // extremes of observed values (0 when empty)

	invLogGrowth float64
	minBound     float64
}

// NewHistogram builds a histogram whose finite bucket upper bounds are
// min·growth^i for i in [0, n). min must be positive, growth > 1, n >= 1.
func NewHistogram(min, growth float64, n int) *Histogram {
	if min <= 0 || math.IsInf(min, 0) || math.IsNaN(min) {
		panic(fmt.Sprintf("metrics: histogram min %v must be positive and finite", min))
	}
	if growth <= 1 || math.IsInf(growth, 0) || math.IsNaN(growth) {
		panic(fmt.Sprintf("metrics: histogram growth %v must exceed 1", growth))
	}
	if n < 1 {
		panic("metrics: histogram needs at least one bucket")
	}
	h := &Histogram{
		bounds:       make([]float64, n),
		counts:       make([]uint64, n+1),
		invLogGrowth: 1 / math.Log(growth),
		minBound:     min,
	}
	b := min
	for i := range h.bounds {
		h.bounds[i] = b
		b *= growth
	}
	return h
}

// bucketOf maps a value to its bucket index (len(bounds) = overflow). The
// log gives the answer in O(1); the two comparisons repair float rounding
// at bucket edges so the cumulative rendering stays exact.
func (h *Histogram) bucketOf(v float64) int {
	if v <= h.minBound {
		return 0
	}
	last := len(h.bounds) - 1
	if v > h.bounds[last] {
		return last + 1
	}
	i := int(math.Ceil(math.Log(v/h.minBound) * h.invLogGrowth))
	if i > last {
		i = last
	}
	for i > 0 && v <= h.bounds[i-1] {
		i--
	}
	for v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one sample. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[h.bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observed value (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max reports the largest observed value (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound of
// the bucket holding the nearest-rank sample — an over-estimate by at most
// one growth factor. Overflow-bucket ranks report the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// WritePrometheus renders the histogram as one unlabeled family in the
// text exposition format (version 0.0.4): cumulative _bucket series with
// le bounds, the +Inf bucket, _sum, and _count.
func (h *Histogram) WritePrometheus(w io.Writer, name, help string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			name, strconv.FormatFloat(ub, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	return err
}
