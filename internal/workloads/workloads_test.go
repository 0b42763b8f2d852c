package workloads

import (
	"math"
	"testing"

	"repro/internal/dag"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestAllCount(t *testing.T) {
	bs := All()
	if len(bs) != 8 {
		t.Fatalf("All() = %d benchmarks, want 8", len(bs))
	}
	wantOrder := []string{"Cyc", "Epi", "Gen", "Soy", "Vid", "IR", "FP", "WC"}
	for i, b := range bs {
		if b.Name != wantOrder[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, b.Name, wantOrder[i])
		}
	}
}

func TestScientificWorkflowsHave50Nodes(t *testing.T) {
	for _, b := range All() {
		if !b.Scientific {
			continue
		}
		if got := b.Graph.TaskCount(); got != 50 {
			t.Errorf("%s has %d task nodes, want 50 (paper §2.1)", b.Name, got)
		}
	}
}

func TestRealAppsAreSmall(t *testing.T) {
	for _, b := range All() {
		if b.Scientific {
			continue
		}
		if got := b.Graph.TaskCount(); got < 4 || got > 15 {
			t.Errorf("%s has %d task nodes, want ~10 or fewer (paper Fig 15)", b.Name, got)
		}
	}
}

// faasBytes predicts the bytes one invocation moves across the network
// when every edge goes through the remote store (harness.DataMovement
// measures it): each payload is uploaded once by its producer and
// downloaded once by its consumer.
func faasBytes(b *Benchmark) int64 { return 2 * b.Graph.TotalBytes() }

func TestCycFaaSBytesMatchFigure5(t *testing.T) {
	b := Cycles()
	gotMB := float64(faasBytes(b)) / MB
	want := PaperFig5FaaSMB["Cyc"]
	if math.Abs(gotMB-want)/want > 0.10 {
		t.Fatalf("Cyc FaaS movement = %.1f MB, want within 10%% of %.1f MB", gotMB, want)
	}
	monoMB := float64(b.MonolithicBytes) / MB
	if math.Abs(monoMB-PaperFig5MonoMB["Cyc"])/PaperFig5MonoMB["Cyc"] > 0.10 {
		t.Fatalf("Cyc monolithic = %.2f MB, want ~%.2f", monoMB, PaperFig5MonoMB["Cyc"])
	}
}

func TestVidFaaSBytesMatchFigure5(t *testing.T) {
	b := VideoFFmpeg()
	gotMB := float64(faasBytes(b)) / MB
	want := PaperFig5FaaSMB["Vid"]
	if math.Abs(gotMB-want)/want > 0.10 {
		t.Fatalf("Vid FaaS movement = %.1f MB, want within 10%% of %.1f MB", gotMB, want)
	}
}

func TestFaaSAmplification(t *testing.T) {
	// The paper's headline: Vid and Cyc need 22.86x / 39.46x more network
	// movement under FaaS than monolithic. Allow generous tolerance; the
	// *ordering* and the order of magnitude are what matter.
	cyc, vid := Cycles(), VideoFFmpeg()
	cycAmp := float64(faasBytes(cyc)) / float64(cyc.MonolithicBytes)
	vidAmp := float64(faasBytes(vid)) / float64(vid.MonolithicBytes)
	if cycAmp < 30 || cycAmp > 70 {
		t.Errorf("Cyc amplification = %.1fx, want ~49x", cycAmp)
	}
	if vidAmp < 15 || vidAmp > 35 {
		t.Errorf("Vid amplification = %.1fx, want ~23x", vidAmp)
	}
	if cycAmp <= vidAmp {
		t.Error("Cyc should amplify more than Vid")
	}
}

func TestGenomeScales(t *testing.T) {
	for _, n := range []int{10, 25, 50, 100, 200} {
		b := Genome(n)
		if err := b.Validate(); err != nil {
			t.Fatalf("Genome(%d): %v", n, err)
		}
		if got := b.Graph.TaskCount(); got != n {
			t.Errorf("Genome(%d) has %d task nodes", n, got)
		}
	}
}

func TestGenomeTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Genome(5) did not panic")
		}
	}()
	Genome(5)
}

func TestByName(t *testing.T) {
	if b := ByName("Vid"); b == nil || b.Name != "Vid" {
		t.Fatal("ByName(Vid) failed")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName(nope) returned a benchmark")
	}
}

func TestGraphsAreConnectedFromSources(t *testing.T) {
	for _, b := range All() {
		g := b.Graph
		sources := g.Sources()
		if len(sources) == 0 {
			t.Errorf("%s has no source", b.Name)
			continue
		}
		reached := map[dag.NodeID]bool{}
		for stack := sources; len(stack) > 0; {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reached[id] {
				reached[id] = true
				stack = append(stack, g.Succs(id)...)
			}
		}
		if len(reached) != g.Len() {
			t.Errorf("%s: only %d/%d nodes reachable from sources", b.Name, len(reached), g.Len())
		}
	}
}

func TestContentionPairsAreDistinct(t *testing.T) {
	for _, b := range All() {
		for _, p := range b.Contention {
			if p[0] == p[1] {
				t.Errorf("%s: contention pair with itself: %v", b.Name, p)
			}
		}
	}
}

func TestMemProfiles(t *testing.T) {
	b := VideoFFmpeg()
	profiles := b.MemProfiles(256 * MB)
	if len(profiles) != b.Graph.TaskCount() {
		t.Fatalf("profiles = %d, want %d", len(profiles), b.Graph.TaskCount())
	}
	for _, p := range profiles {
		if p.Provisioned != 256*MB {
			t.Fatalf("default provision not applied: %d", p.Provisioned)
		}
		if p.PeakUsage <= 0 || p.PeakUsage >= p.Provisioned {
			t.Fatalf("peak usage %d out of range", p.PeakUsage)
		}
		if p.Map < 1 {
			t.Fatalf("Map = %v < 1", p.Map)
		}
	}
}

func TestExecTimesArePositive(t *testing.T) {
	for _, b := range All() {
		for name, fn := range b.Functions {
			if fn.ExecSeconds <= 0 {
				t.Errorf("%s/%s: ExecSeconds = %v", b.Name, name, fn.ExecSeconds)
			}
			if fn.MemPeak <= 0 {
				t.Errorf("%s/%s: MemPeak = %v", b.Name, name, fn.MemPeak)
			}
		}
	}
}

func TestValidateCatchesUnknownFunction(t *testing.T) {
	b := VideoFFmpeg()
	b.Graph.AddTask("ghost", "not-a-function")
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted unknown function")
	}
}

func TestDataHierarchy(t *testing.T) {
	// The paper's Figure 5 ordering: Cyc moves by far the most data; the
	// real-world apps are far smaller.
	byName := map[string]int64{}
	for _, b := range All() {
		byName[b.Name] = faasBytes(b)
	}
	if byName["Cyc"] <= byName["Gen"] {
		t.Error("Cyc should move more data than Gen")
	}
	for _, app := range []string{"Vid", "IR", "FP", "WC"} {
		if byName[app] >= byName["Cyc"] {
			t.Errorf("%s moves more than Cyc", app)
		}
	}
	if byName["IR"] >= byName["Vid"] {
		t.Error("IR should be lighter than Vid")
	}
}
