package perf

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// This file holds the micro-benchmark bodies for the hot paths the ROADMAP
// names. Each takes a *testing.B so the same code runs two ways: wrapped
// by the per-package bench_test.go files under `go test -bench`, and
// driven by the Runner via testing.Benchmark to land in BENCH_<seq>.json.
// Domain metrics (event counts, sim time) go through b.ReportMetric so
// `go test -bench -json` output is machine-parseable.

// BenchSimKernel exercises the discrete-event kernel's push/pop/advance
// cycle at a steady heap depth of 1024 pending events — the shape of a
// saturated multi-workflow run. Each op is one Schedule plus one Step.
func BenchSimKernel(b *testing.B) {
	env := sim.NewEnv()
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Schedule(depth*time.Microsecond, fn)
		env.Step()
	}
	b.StopTimer()
	reportRate(b, float64(b.N), "events/sec")
}

// BenchSimCancel measures the cancel-heavy path: a timeout guard is an
// owned event, armed for every task and canceled nearly every time, so
// removing a canceled event from the middle of the heap is on the hot path
// too.
func BenchSimCancel(b *testing.B) {
	env := sim.NewEnv()
	fn := func() {}
	guard := env.NewEvent(fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reschedule(guard, env.After(time.Millisecond))
		env.Schedule(time.Microsecond, fn)
		guard.Cancel()
		env.Step()
	}
	b.StopTimer()
	reportRate(b, 2*float64(b.N), "events/sec")
}

// fairShareFlows is the concurrent-flow count of one fair-share batch: 8
// sources fan 4 flows each into one sink, reproducing the many-writers-
// one-storage-node contention pattern the paper studies.
const fairShareFlows = 32

// BenchNetworkFairShare runs one batch of fairShareFlows concurrent
// transfers into a single bottleneck sink per op. Every flow join and
// completion re-runs the max-min solver over the active set, so one op is
// ~2×fairShareFlows solver passes at realistic set sizes.
func BenchNetworkFairShare(b *testing.B) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("sink", network.MBps(100), network.MBps(100))
	sources := make([]string, 8)
	for i := range sources {
		sources[i] = "src" + strconv.Itoa(i)
		fab.AddNode(sources[i], network.MBps(100), network.MBps(100))
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			for j := 0; j < fairShareFlows/len(sources); j++ {
				fab.Send(src, "sink", 1<<20, done)
			}
		}
		env.Run()
	}
	b.StopTimer()
	reportRate(b, float64(fab.Resolves()), "resolves/sec")
	b.ReportMetric(float64(fab.Resolves())/float64(b.N), "resolves/op")
}

// ObsMode selects how much of the observability layer an engine-dispatch
// benchmark attaches — the self-overhead accounting axis.
type ObsMode int

const (
	// ObsOff runs with no bus at all: publishes are a nil-pointer check.
	ObsOff ObsMode = iota
	// ObsIdle attaches a bus with no subscriber: publishes are guarded by
	// Active() and must cost (and allocate) nothing.
	ObsIdle
	// ObsOn attaches a metrics Collector (the gateway's /metrics path), so
	// every event is built, published, and folded into the registry.
	ObsOn
)

func (m ObsMode) String() string {
	switch m {
	case ObsOff:
		return "obs-off"
	case ObsIdle:
		return "obs-idle"
	default:
		return "obs-on"
	}
}

// dispatchBed builds the paper's 8-node testbed with a deployed
// Genome-class workflow and the requested observability attachment.
func dispatchBed(mode engine.Mode, om ObsMode) (*harness.Testbed, *engine.Deployment, error) {
	tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: true})
	switch om {
	case ObsIdle:
		tb.AttachBus(obs.NewBus())
	case ObsOn:
		bus := obs.NewBus()
		c := obs.NewCollector(obs.NewRegistry())
		bus.Subscribe(c.Handle)
		bus.Subscribe(obs.NewLatencyTracker(c))
		tb.AttachBus(bus)
	}
	d, err := tb.Deploy(workloads.Genome(10), engine.Options{Mode: mode, Data: engine.DataStore})
	if err != nil {
		return nil, nil, err
	}
	return tb, d.Engine, nil
}

// BenchEngineDispatch measures end-to-end dispatch of one Genome(10)
// invocation per op — trigger evaluation, container acquisition, store
// traffic, and state propagation under the given scheduling pattern. The
// ObsMode axis is the self-overhead accounting: obs-idle vs obs-off is
// the cost of carrying the instrumentation, obs-on vs obs-off the cost of
// collecting it.
func BenchEngineDispatch(b *testing.B, mode engine.Mode, om ObsMode) {
	tb, d, err := dispatchBed(mode, om)
	if err != nil {
		b.Fatal(err)
	}
	benchInvocations(b, tb, d)
}

// storageBed builds the paper's 8-node testbed with Genome(50) deployed
// under MasterSP with FaaStore off: every payload crosses the storage
// node's link, the setup of bench's gen-storage-bound workload.
func storageBed() (*harness.Testbed, *engine.Deployment, error) {
	tb := harness.NewTestbed(harness.ClusterSpec{})
	d, err := tb.Deploy(workloads.Genome(50), engine.Options{Mode: engine.ModeMasterSP, Data: engine.DataStore})
	if err != nil {
		return nil, nil, err
	}
	return tb, d.Engine, nil
}

// BenchDispatchStorage measures one warm Genome(50) MasterSP invocation
// whose every payload goes through the remote store per op: the data
// plane's per-step cost, remote store ops and fabric flows included.
func BenchDispatchStorage(b *testing.B) {
	tb, d, err := storageBed()
	if err != nil {
		b.Fatal(err)
	}
	benchInvocations(b, tb, d)
}

// benchInvocations warms d's container pools, then runs one invocation to
// completion per op.
func benchInvocations(b *testing.B, tb *harness.Testbed, d *engine.Deployment) {
	// Warm the container pool so ops measure steady-state dispatch.
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	startFired := tb.Env.Fired()
	startSim := tb.Env.Now()
	cb := func(engine.Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Invoke(cb)
		tb.Env.Run()
	}
	b.StopTimer()
	fired := float64(tb.Env.Fired() - startFired)
	simNs := float64(tb.Env.Now() - startSim)
	reportRate(b, fired, "events/sec")
	b.ReportMetric(fired/float64(b.N), "events/op")
	if host := b.Elapsed().Seconds(); host > 0 {
		b.ReportMetric(simNs/1e9/host, "simsec/sec")
	}
}

// BenchStoreHybrid measures one FaaStore Hybrid Put+Get+Delete cycle per
// op. local=true keeps producer and consumer on the same worker (the
// FaaStore fast path: in-memory copy, no fabric); local=false forces the
// remote path through the fair-share fabric and the DB's op latency.
func BenchStoreHybrid(b *testing.B, local bool) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	mems := map[string]*store.MemKV{}
	for i := 0; i < 4; i++ {
		id := "w" + strconv.Itoa(i)
		fab.AddNode(id, network.MBps(100), network.MBps(100))
		mems[id] = store.NewMemKV(env, id, 1<<30)
	}
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	h := store.NewHybrid(remote, mems, false)
	consumer := "w0"
	if !local {
		consumer = "w1"
	}
	consumers := []string{consumer}
	putDone := func(store.Location, error) {}
	var key string
	getDone := func(size int64, ok bool, err error) {
		if !ok || err != nil {
			b.Fatalf("get %s: ok=%v err=%v", key, ok, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = "k" + strconv.Itoa(i)
		h.Put("w0", key, 64<<10, consumers, putDone)
		env.Run()
		h.Get(consumer, key, getDone)
		env.Run()
		h.Delete(key)
	}
	b.StopTimer()
	reportRate(b, 2*float64(b.N), "ops/sec")
}

// reportRate reports count/elapsed under the given unit, guarding the
// -benchtime=1x case where elapsed can round to zero.
func reportRate(b *testing.B, count float64, unit string) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(count/secs, unit)
	}
}

// microBench names one runnable micro-benchmark body.
type microBench struct {
	name string
	body func(*testing.B)
}

// microSuite is the stable micro-benchmark list the Runner executes; the
// names are the BenchResult identities the differ joins on.
func microSuite() []microBench {
	return []microBench{
		{"sim/event-kernel", BenchSimKernel},
		{"sim/event-cancel", BenchSimCancel},
		{"network/fair-share", BenchNetworkFairShare},
		{"engine/dispatch-workersp", func(b *testing.B) { BenchEngineDispatch(b, engine.ModeWorkerSP, ObsOff) }},
		{"engine/dispatch-mastersp", func(b *testing.B) { BenchEngineDispatch(b, engine.ModeMasterSP, ObsOff) }},
		{"engine/dispatch-obs-idle", func(b *testing.B) { BenchEngineDispatch(b, engine.ModeWorkerSP, ObsIdle) }},
		{"engine/dispatch-obs-on", func(b *testing.B) { BenchEngineDispatch(b, engine.ModeWorkerSP, ObsOn) }},
		{"engine/dispatch-storage", BenchDispatchStorage},
		{"store/hybrid-local", func(b *testing.B) { BenchStoreHybrid(b, true) }},
		{"store/hybrid-remote", func(b *testing.B) { BenchStoreHybrid(b, false) }},
	}
}
