package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workloads"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Jobs: []Job{
			{Name: "split", Task: "split", RuntimeSeconds: 0.5, MemoryBytes: 64 << 20, OutputBytes: 1 << 20},
			{Name: "work-a", Task: "work", RuntimeSeconds: 1.0, MemoryBytes: 96 << 20, OutputBytes: 2 << 20, Parents: []string{"split"}},
			{Name: "work-b", Task: "work", RuntimeSeconds: 2.0, MemoryBytes: 128 << 20, OutputBytes: 2 << 20, Parents: []string{"split"}},
			{Name: "merge", Task: "merge", RuntimeSeconds: 0.3, MemoryBytes: 64 << 20, OutputBytes: 512 << 10, Parents: []string{"work-a", "work-b"}},
		},
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	src := sampleTrace()
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != src.Name || len(got.Jobs) != len(src.Jobs) {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range src.Jobs {
		a, b := src.Jobs[i], got.Jobs[i]
		if a.Name != b.Name || a.Task != b.Task || a.RuntimeSeconds != b.RuntimeSeconds ||
			a.OutputBytes != b.OutputBytes || len(a.Parents) != len(b.Parents) {
			t.Fatalf("job %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"no name", func(tr *Trace) { tr.Name = "" }, "missing name"},
		{"no jobs", func(tr *Trace) { tr.Jobs = nil }, "no jobs"},
		{"empty job name", func(tr *Trace) { tr.Jobs[0].Name = "" }, "empty name"},
		{"dup job", func(tr *Trace) { tr.Jobs[1].Name = "split" }, "duplicate job"},
		{"no task", func(tr *Trace) { tr.Jobs[0].Task = "" }, "no task type"},
		{"bad runtime", func(tr *Trace) { tr.Jobs[0].RuntimeSeconds = 0 }, "non-positive runtime"},
		{"negative size", func(tr *Trace) { tr.Jobs[0].OutputBytes = -1 }, "negative sizes"},
		{"ghost parent", func(tr *Trace) { tr.Jobs[3].Parents = []string{"ghost"} }, "unknown parent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sampleTrace()
			tc.mut(tr)
			err := tr.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestToBenchmark(t *testing.T) {
	b, err := sampleTrace().ToBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph.TaskCount() != 4 || b.Graph.NumEdges() != 4 {
		t.Fatalf("graph = %d nodes %d edges", b.Graph.TaskCount(), b.Graph.NumEdges())
	}
	// Task "work" averages its two jobs: (1.0+2.0)/2 and (96+128)/2 MB.
	work := b.Functions["work"]
	if work.ExecSeconds != 1.5 {
		t.Fatalf("work exec = %v, want 1.5", work.ExecSeconds)
	}
	if work.MemPeak != 112<<20 {
		t.Fatalf("work mem = %d, want 112MB", work.MemPeak)
	}
	// Edge payloads come from the parent's OutputBytes.
	for _, e := range b.Graph.Edges() {
		from := b.Graph.Node(e.From).Name
		if from == "split" && e.Bytes != 1<<20 {
			t.Fatalf("split edge bytes = %d", e.Bytes)
		}
		if strings.HasPrefix(from, "work") && e.Bytes != 2<<20 {
			t.Fatalf("work edge bytes = %d", e.Bytes)
		}
	}
}

func TestToBenchmarkDetectsCycle(t *testing.T) {
	tr := sampleTrace()
	tr.Jobs[0].Parents = []string{"merge"}
	if _, err := tr.ToBenchmark(); err == nil {
		t.Fatal("cyclic trace converted")
	}
}

func TestFromBenchmarkRoundTrip(t *testing.T) {
	src := sampleTrace()
	b, err := src.ToBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(src.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(back.Jobs), len(src.Jobs))
	}
	byName := map[string]Job{}
	for _, j := range back.Jobs {
		byName[j.Name] = j
	}
	for _, want := range src.Jobs {
		got, ok := byName[want.Name]
		if !ok {
			t.Fatalf("job %q lost", want.Name)
		}
		if got.Task != want.Task {
			t.Fatalf("job %q: %+v vs %+v", want.Name, got, want)
		}
		// Sinks have no out-edges, so their OutputBytes cannot survive the
		// graph round trip; every producing job's must.
		if len(want.Parents) < len(src.Jobs) && want.Name != "merge" && got.OutputBytes != want.OutputBytes {
			t.Fatalf("job %q output: %d vs %d", want.Name, got.OutputBytes, want.OutputBytes)
		}
		if len(got.Parents) != len(want.Parents) {
			t.Fatalf("job %q parents: %v vs %v", want.Name, got.Parents, want.Parents)
		}
	}
}

func TestFromBenchmarkSkipsVirtualNodes(t *testing.T) {
	// Epigenomics has no virtual nodes, but a WDL-built workflow does;
	// build one via the paper benchmark converter on Cycles for smoke and
	// use the engine's virtual test graph shape manually.
	b := workloads.Cycles()
	tr, err := FromBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 50 {
		t.Fatalf("Cyc trace jobs = %d, want 50", len(tr.Jobs))
	}
	back, err := tr.ToBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.TaskCount() != 50 {
		t.Fatalf("round-tripped Cyc = %d tasks", back.Graph.TaskCount())
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, n := range []int{4, 10, 50, 200} {
		tr, err := Generate(GenerateOptions{Jobs: n, Seed: 42})
		if err != nil {
			t.Fatalf("Generate(%d): %v", n, err)
		}
		if len(tr.Jobs) != n {
			t.Fatalf("Generate(%d) produced %d jobs", n, len(tr.Jobs))
		}
		b, err := tr.ToBenchmark()
		if err != nil {
			t.Fatalf("Generate(%d) benchmark: %v", n, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateTooSmall(t *testing.T) {
	if _, err := Generate(GenerateOptions{Jobs: 3}); err == nil {
		t.Fatal("Generate(3) accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GenerateOptions{Jobs: 30, Seed: 7})
	b, _ := Generate(GenerateOptions{Jobs: 30, Seed: 7})
	da, _ := a.Marshal()
	db, _ := b.Marshal()
	if string(da) != string(db) {
		t.Fatal("same-seed generation differs")
	}
	c, _ := Generate(GenerateOptions{Jobs: 30, Seed: 8})
	dc, _ := c.Marshal()
	if string(da) == string(dc) {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: generated traces always convert to valid benchmarks whose
// task count matches the requested job count, for any size and seed.
func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, stagesRaw uint8) bool {
		n := int(nRaw%100) + 4
		stages := int(stagesRaw%5) + 1
		tr, err := Generate(GenerateOptions{Jobs: n, Stages: stages, Seed: seed})
		if err != nil || len(tr.Jobs) != n {
			return false
		}
		b, err := tr.ToBenchmark()
		if err != nil {
			return false
		}
		return b.Graph.TaskCount() == n && b.Graph.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ToBenchmark/FromBenchmark round trip preserves the dependency
// structure of generated traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 4
		tr, err := Generate(GenerateOptions{Jobs: n, Seed: seed})
		if err != nil {
			return false
		}
		b, err := tr.ToBenchmark()
		if err != nil {
			return false
		}
		back, err := FromBenchmark(b)
		if err != nil || len(back.Jobs) != len(tr.Jobs) {
			return false
		}
		parents := func(t *Trace) map[string]map[string]bool {
			out := map[string]map[string]bool{}
			for _, j := range t.Jobs {
				set := map[string]bool{}
				for _, p := range j.Parents {
					set[p] = true
				}
				out[j.Name] = set
			}
			return out
		}
		pa, pb := parents(tr), parents(back)
		for name, set := range pa {
			got := pb[name]
			if len(got) != len(set) {
				return false
			}
			for p := range set {
				if !got[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate200(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenerateOptions{Jobs: 200, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParse: Parse never panics on malformed trace JSON; errors are the
// only acceptable failure mode.
func FuzzParse(f *testing.F) {
	data, err := sampleTrace().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Parse(data)
	})
}
