// Package metrics provides the measurement utilities the experiment
// harness uses: latency recording, exact percentiles, timeout clamping
// (the paper marks functions that miss the 60 s deadline as 60 s), and
// plain-text table rendering for the figure/table reproductions.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Recorder accumulates latency samples in insertion order.
type Recorder struct {
	samples []time.Duration
	sorted  []time.Duration // cached sorted copy; nil when stale
}

// Add records one sample.
func (r *Recorder) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = nil
}

// Count reports the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean reports the average latency (0 with no samples).
func (r *Recorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Max reports the largest sample (0 with no samples).
func (r *Recorder) Max() time.Duration {
	var m time.Duration
	for _, s := range r.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// Percentile reports the q-quantile (0 <= q <= 1) using the nearest-rank
// method. Percentile(0.99) is the paper's p99. The insertion order of the
// samples is preserved: the sort happens on a cached copy.
func (r *Recorder) Percentile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	if r.sorted == nil {
		r.sorted = make([]time.Duration, len(r.samples))
		copy(r.sorted, r.samples)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	}
	rank := int(math.Ceil(q * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	return r.sorted[rank-1]
}

// P99 is shorthand for Percentile(0.99).
func (r *Recorder) P99() time.Duration { return r.Percentile(0.99) }

// Clamp caps every recorded sample at limit — the paper's 60 s execution
// timeout handling ("the end-to-end latency is marked the 60s").
func (r *Recorder) Clamp(limit time.Duration) {
	for i, s := range r.samples {
		if s > limit {
			r.samples[i] = limit
		}
	}
	r.sorted = nil
}

// TimeoutRate reports the fraction of samples at or above limit.
func (r *Recorder) TimeoutRate(limit time.Duration) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range r.samples {
		if s >= limit {
			n++
		}
	}
	return float64(n) / float64(len(r.samples))
}

// Table renders rows of labeled values as an aligned plain-text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-style CSV (quoted only when needed).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Seconds formats a duration as seconds with 3 decimals ("1.234s").
func Seconds(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// Millis formats a duration as milliseconds with 1 decimal ("45.6ms").
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// MBytes formats bytes as megabytes with 2 decimals.
func MBytes(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/1e6) }

// Pct formats a 0..1 fraction as a percentage with 1 decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
