// Command bench is the repository's end-to-end benchmark. It runs one of
// six workloads for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit; the last line
// of its output is one JSON object with the result. See README.md for the
// workloads, the metrics and how to compare two commits.
//
//	bench -workload NAME|all -seed S -seconds T [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	bench compare [-bench BENCHMARK.json] [-claim metric@workload] A.jsonl... -- B.jsonl...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// workload is one named set of inputs. run builds fresh state from the
// seed (the batch's set-up), runs size ops on it (the timed phase) and
// checks the outputs; a check that fails returns a *checkError.
type workload struct {
	name string
	size int // ops per batch, sized for about two seconds on a 2-core host
	run  func(seed uint64, size int, tr *tracer) (*batch, error)
}

var workloadList = []workload{
	{"gen-control", 1000, genControl},
	{"gen-storage-bound", 500, genStorageBound},
	{"tenant-overload", 20000, tenantOverload},
	{"durable-failover", 10000, durableFailover},
	{"gateway-http", 1000, gatewayHTTP},
	{"live-genome", 500, liveGenome},
}

// checkError names a correctness check that failed.
type checkError struct{ check, detail string }

func (e *checkError) Error() string { return "check failed: " + e.check + ": " + e.detail }

func checkErr(check, format string, args ...any) error {
	return &checkError{check: check, detail: fmt.Sprintf(format, args...)}
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out appends per run: the result plus what compare needs
// to group runs and to check that deterministic outcomes repeat.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
	Det map[string]float64 `json:"det,omitempty"`
	// Exact names the end-to-end metrics that repeat exactly for a seed,
	// which compare judges run against run on the same seed.
	Exact []string `json:"exact,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: all, "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", 15, "seconds the timed batches run for")
	trace := fs.Int("trace", 0, "1 runs untraced then traced batches and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_out", "where a traced run writes <workload>.{cpu.pprof,spans.json,layers.json}")
	out := fs.String("out", "", "append the run record as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		// One process per workload, so peak RSS is each workload's own.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		code := 0
		for _, w := range workloadList {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(*seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace),
				"-trace-dir", *traceDir, "-out", *out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				code = 1
			}
		}
		return code
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want all, %s)\n", *name, strings.Join(names, ", "))
		return 2
	}

	rec, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir)
	defs := endToEndDefs
	if *trace == 1 {
		defs = layerDefs
	}
	for _, d := range defs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Printf("%-18s %-33s %14.6g %s\n", w.name, d.name, m.Value, m.Unit)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", err)
	}
	line, jerr := json.Marshal(rec.result)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if *out != "" {
		if werr := appendRecord(*out, rec); werr != nil {
			fmt.Fprintln(os.Stderr, "bench:", werr)
			return 1
		}
	}
	if err != nil {
		return 1
	}
	return 0
}

// measure runs one workload for budget. Untraced, it repeats batches and
// reports the end-to-end metrics. Traced, it spends half the budget
// untraced and half with spans, counters and a CPU profile on, and
// reports the per-layer metrics and the tracing overhead.
func measure(w workload, seed uint64, budget time.Duration, traced bool, traceDir string) (record, error) {
	rec := record{Workload: w.name, Seed: seed}
	if !traced {
		start := time.Now()
		probes, err := probeSetups(w, seed)
		if err != nil {
			return rec, err
		}
		bs, err := repeat(w, seed, budget-time.Since(start), variants, nil)
		rec.fill(bs)
		if err == nil {
			err = sameOutcome(bs)
		}
		var rss float64
		if err == nil {
			rss, err = peakRSSMiB()
		}
		if len(bs) > 0 {
			rec.Metrics = endToEnd(bs, probes, rss)
			rec.Exact = exactMetrics(bs[0])
		}
		rec.Correct = err == nil
		return rec, err
	}
	rec.Trace = 1
	plain, err := repeat(w, seed, budget/2, 2, nil)
	if err != nil {
		rec.fill(plain)
		return rec, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return rec, err
	}
	gc0, busy0 := gcCPU()
	tracedBs, err := repeat(w, seed, budget/2, 2, tr)
	gc1, busy1 := gcCPU()
	pprof.StopCPUProfile()
	rec.fill(append(append([]*batch(nil), plain...), tracedBs...))
	if err == nil {
		err = sameOutcome(tracedBs)
	}
	for i := 0; err == nil && i < len(plain) && i < len(tracedBs); i++ {
		if d := diffDet(plain[i].det, tracedBs[i].det); d != "" {
			err = checkErr("tracing changes no outcome", "traced batch %d: %s", i, d)
		}
	}
	if err != nil {
		return rec, err
	}
	profPath, err := writeProfile(traceDir, w.name, prof.Bytes())
	if err != nil {
		return rec, err
	}
	leaf, err := leafSamples(profPath)
	if err != nil {
		return rec, err
	}
	rec.Metrics = perLayer(plain, tracedBs, tr, leaf, (gc1-gc0)/(busy1-busy0))
	if err := writeTraceFiles(traceDir, w.name, tr, rec.Metrics); err != nil {
		return rec, err
	}
	rec.Correct = true
	return rec, nil
}

// repeat runs batches until the next one would likely end past budget,
// but no fewer than atLeast, so set-up is sampled several times. Batch i
// runs input variant i % variants of the seed, after a collection that
// leaves it none of the previous batch's garbage.
func repeat(w workload, seed uint64, budget time.Duration, atLeast int, tr *tracer) ([]*batch, error) {
	start := time.Now()
	var bs []*batch
	for {
		if tr != nil {
			tr.batch = len(bs)
		}
		runtime.GC()
		b, err := w.run(sim.Mix(seed, uint64(len(bs)%variants)), w.size, tr)
		if b != nil {
			b.finish()
			bs = append(bs, b)
			if err == nil && b.failed > 0 {
				err = checkErr("no op failed", "%d of %d ops ended in an unexpected outcome", b.failed, b.ops)
			}
		}
		if err != nil {
			return bs, err
		}
		el := time.Since(start)
		if len(bs) >= atLeast && el+el/time.Duration(len(bs)) > budget {
			return bs, nil
		}
	}
}

// setupProbes is how many set-ups of a one-op batch an untraced run times
// before its batches, so that setup_s is a median over many samples
// rather than over the few batches a run has time for, and does not
// include generating a full batch's inputs.
const setupProbes = 15

// probeSetups times setupProbes set-ups, cycling through the input
// variants as batches do, and returns their lengths in seconds.
func probeSetups(w workload, seed uint64) ([]float64, error) {
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		runtime.GC()
		b, err := w.run(sim.Mix(seed, uint64(i%variants)), 1, nil)
		if err == nil && b.failed > 0 {
			err = checkErr("no op failed", "set-up probe %d: its op ended in an unexpected outcome", i)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b.setup.Seconds())
	}
	return out, nil
}

// sameOutcome checks that every batch repeated exactly the deterministic
// outcome of the first batch that ran the same input variant.
func sameOutcome(bs []*batch) error {
	for i := variants; i < len(bs); i++ {
		if d := diffDet(bs[i%variants].det, bs[i].det); d != "" {
			return checkErr("same inputs, same outcome", "batch %d: %s", i, d)
		}
	}
	return nil
}

// diffDet describes the first difference between two deterministic
// outcomes, or returns "" when they are identical.
func diffDet(want, got map[string]float64) string {
	for k, v := range want {
		if w, ok := got[k]; !ok || w != v {
			return fmt.Sprintf("%s = %v, want %v", k, w, v)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d outcomes, want %d", len(got), len(want))
	}
	return ""
}

func (r *record) fill(bs []*batch) {
	for _, b := range bs {
		r.Attempted += b.ops
		r.Failed += b.failed
	}
	if len(bs) > 0 {
		r.Det = bs[0].det
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
