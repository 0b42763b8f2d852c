// Package workloads defines the eight workflow benchmarks of the FaaSFlow
// evaluation (paper §2.1, Table 1): four Pegasus-style scientific workflows
// — Cycles, Epigenomics, Genome, SoyKB — and four real-world applications —
// Video-FFmpeg, Illegal Recognizer, File Processing, Word Count.
//
// The paper runs the real applications' code and replays Pegasus execution
// instances; neither is available here, so each benchmark is a calibrated
// model: the published DAG shape with per-edge payload sizes and per-node
// execution times chosen to land on the paper's reported aggregates (see
// calibrate.go). The engines, stores and network then run the real
// protocols over these DAGs.
package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/store"
)

// MB is one megabyte in bytes (the paper reports payloads in MB).
const MB = 1 << 20

// FunctionSpec is the cost model of one serverless function.
type FunctionSpec struct {
	Name string
	// ExecSeconds is the CPU time of one invocation on an uncontended core.
	ExecSeconds float64
	// MemPeak is the function's memory high-water mark (the S in the
	// FaaStore reclamation equation). The container memory limit Mem(v) is
	// the cluster's per-container memory, the same for every function.
	MemPeak int64
}

// Benchmark is one complete workflow workload.
type Benchmark struct {
	Name  string // short name used in the paper's figures (Cyc, Epi, ...)
	Title string // human-readable description
	Graph *dag.Graph
	// Functions maps function name -> cost model for every function the
	// graph references.
	Functions map[string]FunctionSpec
	// MonolithicBytes is the data the application moves when deployed as a
	// monolith (external input + final output only) — the paper's Figure 5
	// baseline.
	MonolithicBytes int64
	// Contention lists function pairs with shared-resource conflicts that
	// the Graph Scheduler must not co-locate (the paper's cont(G)).
	Contention [][2]string
	// Scientific marks the four Pegasus workflows (reported separately in
	// the paper's averages).
	Scientific bool
}

// Validate checks internal consistency: the graph is a DAG and every task
// node references a known function.
func (b *Benchmark) Validate() error {
	if err := b.Graph.Validate(); err != nil {
		return fmt.Errorf("%s: %w", b.Name, err)
	}
	for _, n := range b.Graph.Nodes() {
		if n.Kind != dag.KindTask {
			continue
		}
		if _, ok := b.Functions[n.Function]; !ok {
			return fmt.Errorf("%s: node %q references unknown function %q", b.Name, n.Name, n.Function)
		}
	}
	for _, pair := range b.Contention {
		for _, fn := range pair {
			if _, ok := b.Functions[fn]; !ok {
				return fmt.Errorf("%s: contention pair references unknown function %q", b.Name, fn)
			}
		}
	}
	return nil
}

// MemProfiles converts the function specs of the nodes in the graph into
// FaaStore quota inputs (one entry per graph node, honoring foreach
// widths as the Map(v) factor), each provisioned with the container
// memory limit provision.
func (b *Benchmark) MemProfiles(provision int64) []store.FunctionMem {
	var out []store.FunctionMem
	for _, n := range b.Graph.Nodes() {
		if n.Kind != dag.KindTask {
			continue
		}
		spec := b.Functions[n.Function]
		out = append(out, store.FunctionMem{
			Provisioned: provision,
			PeakUsage:   spec.MemPeak,
			Map:         float64(n.Width),
		})
	}
	return out
}

// spec is a builder shorthand.
func spec(fns map[string]FunctionSpec, name string, execSec float64, memPeakMB int64) {
	fns[name] = FunctionSpec{Name: name, ExecSeconds: execSec, MemPeak: memPeakMB * MB}
}

// Cycles builds the Cyc benchmark: an agroecosystem parameter sweep. One
// prepare step broadcasts the prepared climate/soil dataset to 45
// independent crop-cycle simulations whose small results funnel through 3
// collectors into a final summary — 50 task nodes. The broadcast is what
// makes Cyc the most data-hungry benchmark in Figure 5 (~1182 MB in FaaS
// mode vs ~24 MB monolithic) and the biggest FaaStore win in Table 4.
func Cycles() *Benchmark {
	g := dag.New("Cyc")
	fns := map[string]FunctionSpec{}
	spec(fns, "cyc-prepare", 1.2, 120)
	spec(fns, "cyc-sim", 1.5, 150)
	spec(fns, "cyc-collect", 0.4, 80)
	spec(fns, "cyc-summarize", 0.5, 90)

	prepare := g.AddTask("prepare", "cyc-prepare")
	collects := make([]dag.NodeID, 3)
	for i := range collects {
		collects[i] = g.AddTask(fmt.Sprintf("collect-%d", i), "cyc-collect")
	}
	final := g.AddTask("summarize", "cyc-summarize")
	for i := 0; i < 45; i++ {
		sim := g.AddTask(fmt.Sprintf("sim-%02d", i), "cyc-sim")
		g.Connect(prepare, sim, 13*MB) // broadcast of the prepared dataset
		g.Connect(sim, collects[i%3], 100*1024)
	}
	for _, c := range collects {
		g.Connect(c, final, 512*1024)
	}
	return &Benchmark{
		Name:            "Cyc",
		Title:           "Cycles agroecosystem parameter sweep (Pegasus)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 24 * MB,
		Scientific:      true,
	}
}

// Epigenomics builds the Epi benchmark: 11 independent read-processing
// lanes (filter → sol2sanger → fast2bfq → map) between a split and a
// merge/index/pileup tail — 50 task nodes. Most bytes flow along the
// lanes, so most of them localize once a lane lands on one worker.
func Epigenomics() *Benchmark {
	g := dag.New("Epi")
	fns := map[string]FunctionSpec{}
	spec(fns, "epi-split", 0.5, 100)
	spec(fns, "epi-filter", 0.35, 110)
	spec(fns, "epi-sol2sanger", 0.3, 90)
	spec(fns, "epi-fast2bfq", 0.3, 90)
	spec(fns, "epi-map", 0.8, 160)
	spec(fns, "epi-merge", 0.6, 140)
	spec(fns, "epi-index", 0.4, 100)
	spec(fns, "epi-pileup", 0.5, 120)
	spec(fns, "epi-report", 0.2, 60)
	spec(fns, "epi-archive", 0.15, 50)

	split := g.AddTask("split", "epi-split")
	merge := g.AddTask("merge", "epi-merge")
	const laneBytes = 512 * 1024
	for lane := 0; lane < 11; lane++ {
		filter := g.AddTask(fmt.Sprintf("filter-%02d", lane), "epi-filter")
		s2s := g.AddTask(fmt.Sprintf("sol2sanger-%02d", lane), "epi-sol2sanger")
		f2b := g.AddTask(fmt.Sprintf("fast2bfq-%02d", lane), "epi-fast2bfq")
		mp := g.AddTask(fmt.Sprintf("map-%02d", lane), "epi-map")
		g.Connect(split, filter, laneBytes)
		g.Connect(filter, s2s, laneBytes)
		g.Connect(s2s, f2b, laneBytes)
		g.Connect(f2b, mp, laneBytes)
		g.Connect(mp, merge, 300*1024)
	}
	index := g.AddTask("index", "epi-index")
	pileup := g.AddTask("pileup", "epi-pileup")
	report := g.AddTask("report", "epi-report")
	archive := g.AddTask("archive", "epi-archive")
	g.Connect(merge, index, 2*MB)
	g.Connect(index, pileup, 2*MB)
	g.Connect(pileup, report, 256*1024)
	g.Connect(report, archive, 256*1024)
	return &Benchmark{
		Name:            "Epi",
		Title:           "Epigenomics read-mapping pipeline (Pegasus)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 6 * MB,
		Scientific:      true,
	}
}

// Genome builds the Gen benchmark with n task nodes (n >= 10; the paper
// uses 50 and scales 10–200 for the Fig 16 scheduler study). The shape is a
// 1000-genomes-style two-stage analysis with a heavy shuffle between the
// per-individual stage and the overlap stage; shuffle edges dominate the
// bytes and mostly cross workers, which is why Gen keeps only a modest
// FaaStore reduction (Table 4: 24%) and saturates the storage link in
// Fig 12/13.
func Genome(n int) *Benchmark {
	if n < 10 {
		panic("workloads: Genome needs at least 10 nodes")
	}
	g := dag.New("Gen")
	fns := map[string]FunctionSpec{}
	spec(fns, "gen-prep", 0.6, 110)
	spec(fns, "gen-individual", 1.0, 170)
	spec(fns, "gen-sifting", 0.8, 150)
	spec(fns, "gen-overlap", 1.2, 180)
	spec(fns, "gen-frequency", 0.7, 130)

	// Layout: 1 prep + w individuals + w sifting + w overlaps + the rest
	// frequency mergers (at least 1).
	w := (n - 2) / 3
	rest := n - 1 - 3*w
	prep := g.AddTask("prep", "gen-prep")
	individuals := make([]dag.NodeID, w)
	siftings := make([]dag.NodeID, w)
	overlaps := make([]dag.NodeID, w)
	for i := 0; i < w; i++ {
		individuals[i] = g.AddTask(fmt.Sprintf("individual-%02d", i), "gen-individual")
		g.Connect(prep, individuals[i], 2*MB)
	}
	for i := 0; i < w; i++ {
		siftings[i] = g.AddTask(fmt.Sprintf("sifting-%02d", i), "gen-sifting")
		g.Connect(individuals[i], siftings[i], 2*MB)
	}
	for i := 0; i < w; i++ {
		overlaps[i] = g.AddTask(fmt.Sprintf("overlap-%02d", i), "gen-overlap")
		// Shuffle: each overlap consumes three sifting outputs.
		for k := 0; k < 3; k++ {
			g.Connect(siftings[(i+k)%w], overlaps[i], 3*MB/2)
		}
	}
	freqs := make([]dag.NodeID, rest)
	for j := 0; j < rest; j++ {
		freqs[j] = g.AddTask(fmt.Sprintf("frequency-%d", j), "gen-frequency")
		for i := j; i < w; i += rest {
			g.Connect(overlaps[i], freqs[j], MB)
		}
	}
	return &Benchmark{
		Name:            "Gen",
		Title:           "Genome two-stage variant analysis (Pegasus)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 30 * MB,
		// The two shuffle stages are both memory-bandwidth heavy; the
		// paper's cont(G) hook keeps them apart, so shuffle edges stay
		// cross-worker.
		Contention: [][2]string{{"gen-sifting", "gen-overlap"}},
		Scientific: true,
	}
}

// SoyKB builds the Soy benchmark: 15 per-sample alignment chains (align →
// sort → dedup) feeding 4 joint-genotyping nodes and a final combiner —
// 50 task nodes. Nearly all bytes sit on the genotyping fan-in, which the
// contention constraint keeps cross-worker, so FaaStore barely helps
// (Table 4: 5.2%).
func SoyKB() *Benchmark {
	g := dag.New("Soy")
	fns := map[string]FunctionSpec{}
	spec(fns, "soy-align", 0.9, 160)
	spec(fns, "soy-sort", 0.4, 120)
	spec(fns, "soy-dedup", 0.4, 120)
	spec(fns, "soy-genotype", 1.4, 190)
	spec(fns, "soy-combine", 0.6, 130)

	gts := make([]dag.NodeID, 4)
	for j := range gts {
		gts[j] = g.AddTask(fmt.Sprintf("genotype-%d", j), "soy-genotype")
	}
	combine := g.AddTask("combine", "soy-combine")
	for i := 0; i < 15; i++ {
		align := g.AddTask(fmt.Sprintf("align-%02d", i), "soy-align")
		sort := g.AddTask(fmt.Sprintf("sort-%02d", i), "soy-sort")
		dedup := g.AddTask(fmt.Sprintf("dedup-%02d", i), "soy-dedup")
		g.Connect(align, sort, 300*1024)
		g.Connect(sort, dedup, 300*1024)
		for j := range gts {
			g.Connect(dedup, gts[j], 6*MB/5) // heavy genotyping fan-in
		}
	}
	for _, gt := range gts {
		g.Connect(gt, combine, MB)
	}
	return &Benchmark{
		Name:            "Soy",
		Title:           "SoyKB joint genotyping pipeline (Pegasus)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 20 * MB,
		Contention:      [][2]string{{"soy-dedup", "soy-genotype"}},
		Scientific:      true,
	}
}

// VideoFFmpeg builds the Vid benchmark after Alibaba Function Compute's
// FFmpeg use case: a probe step hands the full uploaded video to 8
// parallel transcode branches (each produces one target format), then a
// merge/packaging step. Every branch reads the whole 4.23 MB video, which
// is why Vid's FaaS-mode movement in Figure 5 is ~23x its monolithic size.
func VideoFFmpeg() *Benchmark {
	g := dag.New("Vid")
	fns := map[string]FunctionSpec{}
	spec(fns, "vid-probe", 0.3, 90)
	spec(fns, "vid-transcode", 2.0, 200)
	spec(fns, "vid-merge", 0.5, 130)

	const videoBytes = 4435476 // 4.23 MB, the paper's sample video
	probe := g.AddTask("probe", "vid-probe")
	merge := g.AddTask("merge", "vid-merge")
	for i := 0; i < 8; i++ {
		tr := g.AddTask(fmt.Sprintf("transcode-%d", i), "vid-transcode")
		g.Connect(probe, tr, videoBytes)
		g.Connect(tr, merge, 3*MB/2)
	}
	return &Benchmark{
		Name:            "Vid",
		Title:           "Video-FFmpeg parallel transcoding (Alibaba Function Compute)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 4435476,
	}
}

// IllegalRecognizer builds the IR benchmark after the Google Cloud
// Functions OCR/translate/blur composite: extract text from an image,
// translate it, and in parallel detect and blur offensive content.
func IllegalRecognizer() *Benchmark {
	g := dag.New("IR")
	fns := map[string]FunctionSpec{}
	spec(fns, "ir-ingest", 0.1, 60)
	spec(fns, "ir-ocr", 0.6, 150)
	spec(fns, "ir-translate", 0.4, 80)
	spec(fns, "ir-detect", 0.5, 140)
	spec(fns, "ir-blur", 0.7, 160)
	spec(fns, "ir-publish", 0.1, 60)

	const imageBytes = 1024 * 1024
	ingest := g.AddTask("ingest", "ir-ingest")
	ocr := g.AddTask("ocr", "ir-ocr")
	translate := g.AddTask("translate", "ir-translate")
	detect := g.AddTask("detect", "ir-detect")
	blur := g.AddTask("blur", "ir-blur")
	publish := g.AddTask("publish", "ir-publish")
	g.Connect(ingest, ocr, imageBytes)
	g.Connect(ingest, detect, imageBytes)
	g.Connect(ocr, translate, 64*1024)
	g.Connect(detect, blur, imageBytes)
	g.Connect(translate, publish, 64*1024)
	g.Connect(blur, publish, imageBytes)
	return &Benchmark{
		Name:            "IR",
		Title:           "Illegal Recognizer OCR + translate + blur (Google Cloud Functions)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 2 * MB,
	}
}

// FileProcessing builds the FP benchmark after the AWS Lambda real-time
// file processing reference: fetch notes from the database, then convert
// to HTML and run sentiment detection in parallel, then store both
// results.
func FileProcessing() *Benchmark {
	g := dag.New("FP")
	fns := map[string]FunctionSpec{}
	spec(fns, "fp-fetch", 0.2, 70)
	spec(fns, "fp-convert", 0.5, 120)
	spec(fns, "fp-sentiment", 0.6, 140)
	spec(fns, "fp-store", 0.15, 60)

	const noteBytes = 8 * MB
	fetch := g.AddTask("fetch", "fp-fetch")
	convert := g.AddTask("convert", "fp-convert")
	sentiment := g.AddTask("sentiment", "fp-sentiment")
	storeHTML := g.AddTask("store-html", "fp-store")
	storeSent := g.AddTask("store-sentiment", "fp-store")
	g.Connect(fetch, convert, noteBytes)
	g.Connect(fetch, sentiment, noteBytes)
	g.Connect(convert, storeHTML, 4*MB)
	g.Connect(sentiment, storeSent, 256*1024)
	return &Benchmark{
		Name:            "FP",
		Title:           "Real-time file processing (AWS Lambda reference)",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 10 * MB,
	}
}

// WordCount builds the WC benchmark: the classic map/shuffle/reduce word
// count (after Zhang et al.), with 8 mappers shuffling into 4 reducers.
func WordCount() *Benchmark {
	g := dag.New("WC")
	fns := map[string]FunctionSpec{}
	spec(fns, "wc-split", 0.2, 80)
	spec(fns, "wc-map", 0.5, 130)
	spec(fns, "wc-reduce", 0.4, 110)
	spec(fns, "wc-collect", 0.2, 70)

	split := g.AddTask("split", "wc-split")
	collect := g.AddTask("collect", "wc-collect")
	reducers := make([]dag.NodeID, 4)
	for j := range reducers {
		reducers[j] = g.AddTask(fmt.Sprintf("reduce-%d", j), "wc-reduce")
		g.Connect(reducers[j], collect, 128*1024)
	}
	for i := 0; i < 8; i++ {
		m := g.AddTask(fmt.Sprintf("map-%d", i), "wc-map")
		g.Connect(split, m, MB)
		for j := range reducers {
			g.Connect(m, reducers[j], 256*1024)
		}
	}
	return &Benchmark{
		Name:            "WC",
		Title:           "Word Count map/shuffle/reduce",
		Graph:           g,
		Functions:       fns,
		MonolithicBytes: 17 * MB,
	}
}

// All returns the eight paper benchmarks in the order the figures use:
// Cyc, Epi, Gen, Soy, Vid, IR, FP, WC.
func All() []*Benchmark {
	return []*Benchmark{
		Cycles(), Epigenomics(), Genome(50), SoyKB(),
		VideoFFmpeg(), IllegalRecognizer(), FileProcessing(), WordCount(),
	}
}

// ByName returns one benchmark by its short name (case-sensitive), or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}
