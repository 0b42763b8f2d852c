package harness

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/workloads"
)

// AblationGrouping isolates the Graph Scheduler's contribution: the same
// benchmark under WorkerSP + FaaStore, once with Algorithm 1 grouping and
// once with hash partitioning, returning mean closed-loop latencies.
func AblationGrouping(bench string, invocations int) (algo, hash time.Duration, err error) {
	b := workloads.ByName(bench)
	if b == nil {
		return 0, 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	opts := engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore}

	tb := newSystemTestbed(FaaSFlowFaaStore, network.MBps(50))
	d, err := tb.Deploy(b, opts)
	if err != nil {
		return 0, 0, err
	}
	algo = tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()

	tb2 := newSystemTestbed(FaaSFlowFaaStore, network.MBps(50))
	d2, err := tb2.DeployHashed(workloads.ByName(bench), opts)
	if err != nil {
		return 0, 0, err
	}
	hash = tb2.Drive(Client{Target: d2.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()
	return algo, hash, nil
}

// AblationNetwork isolates the bandwidth-contention model: the same
// benchmark under HyperFlow once on the paper's 50 MB/s shared storage
// link and once on an effectively infinite link (contention-free, pure
// latency). The gap is the share of the baseline's pain that comes from
// modeling bandwidth at all — the justification for the fair-share fabric.
func AblationNetwork(bench string, invocations int) (shared, infinite time.Duration, err error) {
	b := workloads.ByName(bench)
	if b == nil {
		return 0, 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	opts := engine.Options{Mode: engine.ModeMasterSP, Data: engine.DataStore}

	tb := newSystemTestbed(HyperFlow, network.MBps(50))
	d, err := tb.Deploy(b, opts)
	if err != nil {
		return 0, 0, err
	}
	shared = tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()

	tb2 := newSystemTestbed(HyperFlow, network.MBps(1e6))
	d2, err := tb2.Deploy(workloads.ByName(bench), opts)
	if err != nil {
		return 0, 0, err
	}
	infinite = tb2.Drive(Client{Target: d2.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()
	return shared, infinite, nil
}

// SequentialVsDAG contrasts a benchmark's DAG execution with the
// linearized function sequence most vendors support (paper §2.1: "Most
// cloud vendors only support sequential workflow, which is a much simpler
// execution model"). The sequence chains the same tasks in topological
// order, so all parallelism is lost; the gap is what DAG support buys.
func SequentialVsDAG(bench string, invocations int) (dagMean, seqMean time.Duration, err error) {
	b := workloads.ByName(bench)
	if b == nil {
		return 0, 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	opts := engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore}

	tb := newSystemTestbed(FaaSFlowFaaStore, network.MBps(50))
	d, err := tb.Deploy(b, opts)
	if err != nil {
		return 0, 0, err
	}
	dagMean = tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()

	seq, err := linearize(workloads.ByName(bench))
	if err != nil {
		return 0, 0, err
	}
	tb2 := newSystemTestbed(FaaSFlowFaaStore, network.MBps(50))
	d2, err := tb2.Deploy(seq, opts)
	if err != nil {
		return 0, 0, err
	}
	seqMean = tb2.Drive(Client{Target: d2.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()
	return dagMean, seqMean, nil
}

// linearize rebuilds a benchmark as a topological-order chain of the same
// task nodes, passing each node's heaviest output payload down the chain.
func linearize(b *workloads.Benchmark) (*workloads.Benchmark, error) {
	order, err := b.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	g := dag.New(b.Name + "-seq")
	var prev dag.NodeID = -1
	for _, id := range order {
		n := b.Graph.Node(id)
		if n.Kind != dag.KindTask {
			continue
		}
		cur := g.AddTask(n.Name, n.Function)
		if prev >= 0 {
			var bytes int64
			for _, ei := range b.Graph.OutEdges(id) {
				if bts := b.Graph.Edge(ei).Bytes; bts > bytes {
					bytes = bts
				}
			}
			g.Connect(prev, cur, bytes)
		}
		prev = cur
	}
	seq := &workloads.Benchmark{
		Name:            b.Name + "-seq",
		Title:           b.Title + " (linearized)",
		Graph:           g,
		Functions:       b.Functions,
		MonolithicBytes: b.MonolithicBytes,
		Scientific:      b.Scientific,
	}
	return seq, seq.Validate()
}

// QuotaAblation holds the mean latency of a benchmark under three FaaStore
// quota policies.
type QuotaAblation struct {
	// Adaptive is the paper's reclamation quota (Equations 1-2).
	Adaptive time.Duration
	// Tiny caps every worker's in-memory store at 1 MB, forcing nearly all
	// data back to the remote store.
	Tiny time.Duration
	// Unlimited removes the cap entirely (the OOM-risk configuration the
	// adaptive policy exists to avoid).
	Unlimited time.Duration
}

// AblationQuota isolates the quota policy's contribution under WorkerSP.
func AblationQuota(bench string, invocations int) (QuotaAblation, error) {
	run := func(adjust func(*Testbed)) (time.Duration, error) {
		b := workloads.ByName(bench)
		if b == nil {
			return 0, fmt.Errorf("unknown benchmark %q", bench)
		}
		tb := newSystemTestbed(FaaSFlowFaaStore, network.MBps(50))
		d, err := tb.Deploy(b, engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
		if err != nil {
			return 0, err
		}
		if adjust != nil {
			adjust(tb)
		}
		return tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean(), nil
	}
	var out QuotaAblation
	var err error
	if out.Adaptive, err = run(nil); err != nil {
		return out, err
	}
	if out.Tiny, err = run(func(tb *Testbed) {
		for _, m := range tb.Mems {
			m.SetQuota(1 << 20)
		}
	}); err != nil {
		return out, err
	}
	if out.Unlimited, err = run(func(tb *Testbed) {
		for _, m := range tb.Mems {
			m.SetQuota(1 << 50)
		}
	}); err != nil {
		return out, err
	}
	return out, nil
}
