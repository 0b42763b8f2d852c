// Package trace reads and writes workflow execution traces in a
// wfcommons-style JSON format, the lingua franca of the Pegasus workflow
// instances the paper's scientific benchmarks come from
// (github.com/wfcommons/pegasus-instances).
//
// A trace is a list of jobs; each job names its task type, its measured
// runtime and memory, its parents, and the bytes it outputs. Traces
// convert losslessly to and from workloads.Benchmark values, so users can
// run their own Pegasus instances through the FaaSFlow engines, and the
// built-in generator fabricates Pegasus-shaped instances of any size for
// scale studies.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Job is one task instance in a trace.
type Job struct {
	// Name uniquely identifies the job within the trace.
	Name string `json:"name"`
	// Task is the task type (the function the job invokes); jobs sharing
	// a Task share containers.
	Task string `json:"task"`
	// RuntimeSeconds is the job's measured execution time.
	RuntimeSeconds float64 `json:"runtimeSeconds"`
	// MemoryBytes is the job's peak memory.
	MemoryBytes int64 `json:"memoryBytes"`
	// OutputBytes is the data the job hands each child.
	OutputBytes int64 `json:"outputBytes"`
	// Parents lists the names of jobs this one depends on.
	Parents []string `json:"parents,omitempty"`
}

// Trace is a complete workflow execution instance.
type Trace struct {
	Name string `json:"name"`
	Jobs []Job  `json:"jobs"`
}

// Parse decodes a JSON trace and validates it.
func Parse(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Marshal encodes the trace as indented JSON.
func (t *Trace) Marshal() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(t, "", "  ")
}

// Validate checks structural invariants: a name, at least one job, unique
// job names, known parents, sane numbers. Cycles surface later through
// dag.Validate when converting to a benchmark.
func (t *Trace) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("trace: missing name")
	}
	if len(t.Jobs) == 0 {
		return fmt.Errorf("trace %s: no jobs", t.Name)
	}
	seen := map[string]bool{}
	for _, j := range t.Jobs {
		if j.Name == "" {
			return fmt.Errorf("trace %s: job with empty name", t.Name)
		}
		if seen[j.Name] {
			return fmt.Errorf("trace %s: duplicate job %q", t.Name, j.Name)
		}
		seen[j.Name] = true
		if j.Task == "" {
			return fmt.Errorf("trace %s: job %q has no task type", t.Name, j.Name)
		}
		if j.RuntimeSeconds <= 0 {
			return fmt.Errorf("trace %s: job %q has non-positive runtime", t.Name, j.Name)
		}
		if j.MemoryBytes < 0 || j.OutputBytes < 0 {
			return fmt.Errorf("trace %s: job %q has negative sizes", t.Name, j.Name)
		}
	}
	for _, j := range t.Jobs {
		for _, p := range j.Parents {
			if !seen[p] {
				return fmt.Errorf("trace %s: job %q references unknown parent %q", t.Name, j.Name, p)
			}
		}
	}
	return nil
}

// ToBenchmark converts the trace into a runnable workload. Task types
// become functions; per-task runtime and memory are averaged over the
// task's jobs (the cost model is per function, as in the engine).
func (t *Trace) ToBenchmark() (*workloads.Benchmark, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g := dag.New(t.Name)
	ids := map[string]dag.NodeID{}
	for _, j := range t.Jobs {
		ids[j.Name] = g.AddTask(j.Name, j.Task)
	}
	for _, j := range t.Jobs {
		for _, p := range j.Parents {
			parent := findJob(t.Jobs, p)
			g.Connect(ids[p], ids[j.Name], parent.OutputBytes)
		}
	}
	// Average each task type's runtime/memory across its jobs.
	type acc struct {
		runtime float64
		mem     int64
		n       int
	}
	accs := map[string]*acc{}
	for _, j := range t.Jobs {
		a := accs[j.Task]
		if a == nil {
			a = &acc{}
			accs[j.Task] = a
		}
		a.runtime += j.RuntimeSeconds
		a.mem += j.MemoryBytes
		a.n++
	}
	fns := map[string]workloads.FunctionSpec{}
	for task, a := range accs {
		mem := a.mem / int64(a.n)
		if mem <= 0 {
			mem = 64 << 20
		}
		fns[task] = workloads.FunctionSpec{
			Name:        task,
			ExecSeconds: a.runtime / float64(a.n),
			MemPeak:     mem,
		}
	}
	b := &workloads.Benchmark{
		Name:       t.Name,
		Title:      "trace import: " + t.Name,
		Graph:      g,
		Functions:  fns,
		Scientific: true,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func findJob(jobs []Job, name string) Job {
	for _, j := range jobs {
		if j.Name == name {
			return j
		}
	}
	return Job{}
}

// FromBenchmark exports a workload as a trace. Edge payloads become the
// producing job's OutputBytes (the max over its out-edges, since the trace
// format carries one output size per job). Virtual nodes are skipped and
// their dependencies short-circuited.
func FromBenchmark(b *workloads.Benchmark) (*Trace, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	g := b.Graph
	t := &Trace{Name: b.Name}
	// taskParents resolves dependencies through virtual markers.
	var taskParents func(id dag.NodeID, seen map[dag.NodeID]bool) []dag.NodeID
	taskParents = func(id dag.NodeID, seen map[dag.NodeID]bool) []dag.NodeID {
		var out []dag.NodeID
		for _, p := range g.Preds(id) {
			if seen[p] {
				continue
			}
			seen[p] = true
			if g.Node(p).Kind == dag.KindTask {
				out = append(out, p)
			} else {
				out = append(out, taskParents(p, seen)...)
			}
		}
		return out
	}
	for _, n := range g.Nodes() {
		if n.Kind != dag.KindTask {
			continue
		}
		spec := b.Functions[n.Function]
		var outBytes int64
		for _, ei := range g.OutEdges(n.ID) {
			if bts := g.Edge(ei).Bytes; bts > outBytes {
				outBytes = bts
			}
		}
		var parents []string
		for _, p := range taskParents(n.ID, map[dag.NodeID]bool{}) {
			parents = append(parents, g.Node(p).Name)
		}
		sort.Strings(parents)
		t.Jobs = append(t.Jobs, Job{
			Name:           n.Name,
			Task:           n.Function,
			RuntimeSeconds: spec.ExecSeconds,
			MemoryBytes:    spec.MemPeak,
			OutputBytes:    outBytes,
			Parents:        parents,
		})
	}
	return t, t.Validate()
}

// GenerateOptions controls the synthetic Pegasus-shaped generator.
type GenerateOptions struct {
	// Jobs is the total job count (>= 4).
	Jobs int
	// Stages is the pipeline depth between the split and merge stages
	// (default 3).
	Stages int
	// MeanRuntime is the average job runtime in seconds (default 0.5).
	MeanRuntime float64
	// MeanOutput is the average per-job output in bytes (default 1 MB).
	MeanOutput int64
	// Seed drives the deterministic randomness.
	Seed uint64
}

// Generate fabricates a Pegasus-shaped instance: a split job fans out to
// parallel lanes of Stages chained jobs, which merge into a short tail —
// the dominant shape of the Pegasus epigenomics/genome/soykb instances.
// The trace is named pegasus-synthetic-<Jobs>.
func Generate(opts GenerateOptions) (*Trace, error) {
	if opts.Jobs < 4 {
		return nil, fmt.Errorf("trace: need at least 4 jobs, got %d", opts.Jobs)
	}
	if opts.Stages <= 0 {
		opts.Stages = 3
	}
	if opts.Stages > opts.Jobs-3 {
		opts.Stages = opts.Jobs - 3 // leave room for split/merge/final
	}
	if opts.MeanRuntime <= 0 {
		opts.MeanRuntime = 0.5
	}
	if opts.MeanOutput <= 0 {
		opts.MeanOutput = 1 << 20
	}
	rng := sim.NewRand(opts.Seed ^ 0xfaa5f10f)
	jitter := func(mean float64) float64 {
		return mean * (0.5 + rng.Float64())
	}
	t := &Trace{Name: fmt.Sprintf("pegasus-synthetic-%d", opts.Jobs)}
	add := func(name, task string, parents ...string) {
		t.Jobs = append(t.Jobs, Job{
			Name:           name,
			Task:           task,
			RuntimeSeconds: jitter(opts.MeanRuntime),
			MemoryBytes:    int64(jitter(float64(96 << 20))),
			OutputBytes:    int64(jitter(float64(opts.MeanOutput))),
			Parents:        parents,
		})
	}
	// Budget: 1 split + lanes*Stages + 1 merge + 1 final.
	lanes := (opts.Jobs - 3) / opts.Stages
	if lanes < 1 {
		lanes = 1
	}
	add("split", "split")
	for l := 0; l < lanes; l++ {
		prev := "split"
		for s := 0; s < opts.Stages; s++ {
			name := fmt.Sprintf("lane%02d-stage%d", l, s)
			add(name, fmt.Sprintf("stage%d", s), prev)
			prev = name
		}
	}
	var laneEnds []string
	for l := 0; l < lanes; l++ {
		laneEnds = append(laneEnds, fmt.Sprintf("lane%02d-stage%d", l, opts.Stages-1))
	}
	add("merge", "merge", laneEnds...)
	// Spend any leftover budget on a tail chain.
	used := 2 + lanes*opts.Stages
	prev := "merge"
	for i := 0; used+1 < opts.Jobs; i++ {
		name := fmt.Sprintf("tail%d", i)
		add(name, "tail", prev)
		prev = name
		used++
	}
	add("final", "final", prev)
	return t, t.Validate()
}
