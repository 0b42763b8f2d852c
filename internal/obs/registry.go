package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds labeled metric families (counters, gauges, histograms)
// and renders them in the Prometheus text exposition format. It is safe
// for concurrent use: the gateway scrapes from HTTP handlers while the
// (single-threaded) simulation updates values under the server lock, but
// other embedders may not serialize.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	buckets    []float64 // histograms only
	series     map[string]*series
}

type series struct {
	labelValues []string
	value       float64  // counter/gauge value; histogram sum
	count       uint64   // histogram observation count
	bucketCount []uint64 // cumulative per bucket, parallel to family.buckets
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, typ metricType, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		return f
	}
	f = &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     map[string]*series{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) at(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.typ == typeHistogram {
			s.bucketCount = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing metric vector.
type Counter struct {
	r *Registry
	f *family
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *Counter {
	return &Counter{r: r, f: r.family(name, help, typeCounter, nil, labelNames)}
}

// Add increments the series identified by labelValues by v (v must be >= 0).
func (c *Counter) Add(v float64, labelValues ...string) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter %q decremented", c.f.name))
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	c.f.at(labelValues).value += v
}

// Inc adds 1 to the series identified by labelValues.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Gauge is a settable metric vector.
type Gauge struct {
	r *Registry
	f *family
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *Gauge {
	return &Gauge{r: r, f: r.family(name, help, typeGauge, nil, labelNames)}
}

// Set assigns the series' current value.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	g.f.at(labelValues).value = v
}

// Histogram is a bucketed distribution vector.
type Histogram struct {
	r *Registry
	f *family
}

// DefBuckets is a latency-oriented default bucket set in seconds.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// Histogram registers (or fetches) a histogram family. buckets must be
// sorted ascending; nil takes DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return &Histogram{r: r, f: r.family(name, help, typeHistogram, buckets, labelNames)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	s := h.f.at(labelValues)
	s.value += v
	s.count++
	for i, ub := range h.f.buckets {
		if v <= ub {
			s.bucketCount[i]++
		}
	}
}

// ZeroGauges resets every gauge series to zero while keeping the series
// (and their label sets) registered. Observer.Reset uses it so a reused
// registry does not keep reporting stale per-node occupancy after the
// event log is discarded; counters and histograms are cumulative by
// contract and are left alone.
func (r *Registry) ZeroGauges() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.typ != typeGauge {
			continue
		}
		for _, s := range f.series {
			s.value = 0
		}
	}
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), deterministically ordered: families in registration
// order, series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case typeCounter, typeGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelBlock(f.labelNames, s.labelValues, "", ""), formatValue(s.value))
			case typeHistogram:
				for i, ub := range f.buckets {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelBlock(f.labelNames, s.labelValues, "le", formatValue(ub)), s.bucketCount[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelBlock(f.labelNames, s.labelValues, "le", "+Inf"), s.count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
					labelBlock(f.labelNames, s.labelValues, "", ""), formatValue(s.value))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name,
					labelBlock(f.labelNames, s.labelValues, "", ""), s.count)
			}
		}
	}
	return nil
}

// String renders the exposition text.
func (r *Registry) String() string {
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	return sb.String()
}

func labelBlock(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
