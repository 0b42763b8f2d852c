package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records, for a traced run, a span around every call the
// benchmark makes into a layer and host-time samples of single calls. A
// nil *tracer records nothing, so the untraced path only pays a nil check.
// It is safe for concurrent use: live-genome handlers run in parallel.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	batch   int // index of the traced batch being run, the spans' parent
	spans   []span
	dropped int
	samples map[string][]float64
}

// span is one timed call. Spans of one op share batch and op; op is -1
// for batch-level calls (Deploy, Env.Run).
type span struct {
	name       string
	batch      int
	op         int64
	start, dur time.Duration
}

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped. The samples behind the per-layer timings are not bounded.
const maxSpans = 200000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// now starts a span; it returns the zero time when tracing is off.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span started at start and returns its length. When
// metric is set, the length in unit is added to that metric's samples.
func (t *tracer) end(name string, op int64, start time.Time, metric string, unit time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, batch: t.batch, op: op, start: start.Sub(t.t0), dur: d})
	} else {
		t.dropped++
	}
	if metric != "" {
		t.samples[metric] = append(t.samples[metric], float64(d)/float64(unit))
	}
	return d
}

// sample adds one value to a metric's samples.
func (t *tracer) sample(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[metric] = append(t.samples[metric], v)
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto), one row per traced batch.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.batch,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.dur) / 1e3,
			Args: map[string]int64{"batch": int64(s.batch), "op": s.op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// gcCPU reads the runtime's estimate of CPU seconds spent in the garbage
// collector and in total (excluding idle), both cumulative.
func gcCPU() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// cpuLayers maps each layer to the packages whose functions count as its
// CPU time when they are the leaf frame of a profile sample.
var cpuLayers = []struct {
	layer string
	pkgs  []string
}{
	{"sim", []string{"repro/internal/sim"}},
	{"network", []string{"repro/internal/network"}},
	{"cluster", []string{"repro/internal/cluster"}},
	{"engine", []string{"repro/internal/engine"}},
	{"store", []string{"repro/internal/store"}},
	{"admission", []string{"repro/internal/admission"}},
	{"journal", []string{"repro/internal/journal"}},
	{"federation", []string{"repro/internal/federation"}},
	{"obs", []string{"repro/internal/obs", "repro/internal/metrics"}},
	{"gateway", []string{"repro/internal/gateway", "net/http", "encoding/json"}},
	{"live", []string{"repro/internal/live"}},
}

// mallocPrefixes name the runtime's allocator functions.
var mallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.nextFreeFast", "runtime.heapSetType",
	"runtime.(*mcache).nextFree", "runtime.(*mcache).refill", "runtime.(*mcentral).",
	"runtime.(*mspan).nextFreeIndex", "runtime.(*mheap).alloc",
}

// cpuShares turns leaf-function sample counts into each layer's share of
// all samples, plus "malloc" for the runtime's allocator.
func cpuShares(leaf map[string]float64) map[string]float64 {
	out := map[string]float64{}
	total := 0.0
	for fn, n := range leaf {
		total += n
		pkg := pkgOf(fn)
		for _, l := range cpuLayers {
			for _, p := range l.pkgs {
				if p == pkg {
					out[l.layer] += n
				}
			}
		}
		for _, p := range mallocPrefixes {
			if strings.HasPrefix(fn, p) {
				out["malloc"] += n
				break
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// pkgOf returns the import path of a symbol name as Go profiles spell it,
// e.g. "repro/internal/sim" for "repro/internal/sim.(*Env).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafSamples groups the CPU profile at path with `go tool pprof -top`
// and returns the flat sample count per function: samples whose leaf
// frame, inlining resolved, is that function.
func leafSamples(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples", "-symbolize=none",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	// Rows follow the "flat flat% sum% cum cum%" header: five numeric
	// columns, then the function name, "(inline)" marking inlined frames.
	out := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		n, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		out[name] += n
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof: no sample table in %q", top)
	}
	return out, nil
}

// writeProfile writes a traced run's CPU profile to dir as
// <workload>.cpu.pprof and returns its path.
func writeProfile(dir, workload string, prof []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".cpu.pprof")
	return path, os.WriteFile(path, prof, 0o644)
}

// writeTraceFiles writes a traced run's spans and per-layer metrics to dir
// as <workload>.{spans.json,layers.json}.
func writeTraceFiles(dir, workload string, tr *tracer, layers map[string]metric) error {
	base := filepath.Join(dir, workload)
	if err := tr.writeChrome(base + ".spans.json"); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload":      workload,
		"metrics":       layers,
		"spans":         len(tr.spans),
		"spans_dropped": tr.dropped,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", data, 0o644)
}
