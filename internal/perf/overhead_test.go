package perf

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Self-overhead accounting: the observability layer must be close to free
// when nobody is listening. Two gates below — an allocation gate (exact,
// always on) and a timing gate (skipped under -race) — both over the full
// engine-dispatch path, where every obs publish site sits.

// dispatchOnce runs one warmed deployment through a single Genome(10)
// invocation; the returned closure is the unit both gates measure.
func dispatchOnce(t testing.TB, om ObsMode) func() {
	tb, d, err := dispatchBed(engine.ModeWorkerSP, om)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	return func() {
		d.Invoke(nil)
		tb.Env.Run()
	}
}

// TestDispatchObsIdleAddsNoAllocs asserts that carrying an attached but
// subscriber-less bus adds zero allocations per dispatched invocation
// relative to no bus at all: every publish site must check Active() before
// building its event (boxing a payload into the Event interface is an
// allocation, guard or not).
func TestDispatchObsIdleAddsNoAllocs(t *testing.T) {
	const runs = 100
	off := minMallocsPerCall(runs, dispatchOnce(t, ObsOff))
	idle := minMallocsPerCall(runs, dispatchOnce(t, ObsIdle))
	t.Logf("mallocs per dispatch: obs-off=%d obs-idle=%d", off, idle)
	if delta := int64(idle) - int64(off); delta >= 1 {
		t.Fatalf("obs-idle dispatch allocates %d more than obs-off (%d vs %d) — an unguarded publish site is boxing events nobody reads",
			delta, idle, off)
	}
}

// controlBed builds the paper's 8-node testbed with Genome(50) deployed
// under WorkerSP and no data movement: the §5.2 scheduling-overhead setup,
// where only the sim kernel, engine dispatch and container Acquire work.
func controlBed() (*harness.Testbed, *engine.Deployment, error) {
	tb := harness.NewTestbed(harness.ClusterSpec{})
	d, err := tb.Deploy(workloads.Genome(50), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataNone})
	if err != nil {
		return nil, nil, err
	}
	return tb, d.Engine, nil
}

// BenchmarkDispatchControl measures one warm Genome(50) WorkerSP
// invocation with no data movement per op, the setup of bench's
// gen-control workload: the per-step cost of the simulator's dispatch
// path, with allocs/op and events/op as its deterministic proxies.
func BenchmarkDispatchControl(b *testing.B) {
	tb, d, err := controlBed()
	if err != nil {
		b.Fatal(err)
	}
	benchInvocations(b, tb, d)
}

// TestControlDispatchAllocs gates the allocation cost of the simulator's
// dispatch path: one warm Genome(50) WorkerSP invocation with no data
// movement. Kernel-owned events are recycled, each executor attempt is one
// object, and finished CPU tasks are reused, so the count stays far below
// the 2,220 allocations the closure-per-phase dispatch made here.
func TestControlDispatchAllocs(t *testing.T) {
	const limit = 1000
	tb, d, err := controlBed()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	got := minMallocsPerCall(20, func() {
		d.Invoke(nil)
		tb.Env.Run()
	})
	t.Logf("mallocs per warm Genome(50) WorkerSP invocation: %d", got)
	if got > limit {
		t.Fatalf("warm Genome(50) WorkerSP invocation allocates %d times, want <= %d", got, limit)
	}
}

// TestStorageDispatchAllocs gates the allocation cost of the data plane:
// one warm Genome(50) MasterSP invocation whose every payload goes through
// the remote store. Remote store operations, data cursors and MasterSP
// assignments are recycled and each flow is one struct with one event, so
// the count stays far below the 3,790 allocations the closure chains made
// here.
func TestStorageDispatchAllocs(t *testing.T) {
	const limit = 1400
	tb, d, err := storageBed()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	got := minMallocsPerCall(20, func() {
		d.Invoke(nil)
		tb.Env.Run()
	})
	t.Logf("mallocs per warm Genome(50) MasterSP DataStore invocation: %d", got)
	if got > limit {
		t.Fatalf("warm Genome(50) MasterSP DataStore invocation allocates %d times, want <= %d", got, limit)
	}
}

// TestHybridRemotePairAllocs gates one warm remote Put+Get pair through
// FaaStore's Hybrid: the hybrid and remote ops come off their free lists,
// kernel events are recycled, and what is left is each payload's flow —
// the Flow struct, its owned event and the event's bound callback.
func TestHybridRemotePairAllocs(t *testing.T) {
	const limit = 6
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	mems := map[string]*store.MemKV{}
	for _, w := range []string{"w0", "w1"} {
		fab.AddNode(w, network.MBps(100), network.MBps(100))
		mems[w] = store.NewMemKV(env, w, 1<<30)
	}
	h := store.NewHybrid(store.NewRemoteKV(env, fab, "master", time.Millisecond), mems, false)
	consumers := []string{"w1"}
	putDone := func(store.Location, error) {}
	getDone := func(int64, bool, error) {}
	pair := func() {
		h.Put("w0", "k", 64<<10, consumers, putDone)
		env.Run()
		h.Get("w1", "k", getDone)
		env.Run()
		h.Delete("k")
	}
	for i := 0; i < 3; i++ {
		pair()
	}
	got := minMallocsPerCall(20, pair)
	t.Logf("mallocs per warm remote Hybrid Put+Get: %d", got)
	if got > limit {
		t.Fatalf("warm remote Hybrid Put+Get allocates %d times, want <= %d", got, limit)
	}
}

// TestFabricSendAllocs gates one bulk transfer: the Flow struct (Send
// returns it, so it is not recycled), its one owned event and that
// event's bound callback.
func TestFabricSendAllocs(t *testing.T) {
	const limit = 3
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("a", network.MBps(100), network.MBps(100))
	fab.AddNode("b", network.MBps(100), network.MBps(100))
	done := func() {}
	send := func() {
		fab.Send("a", "b", 1<<20, done)
		env.Run()
	}
	for i := 0; i < 3; i++ {
		send()
	}
	got := minMallocsPerCall(20, send)
	t.Logf("mallocs per warm Fabric.Send: %d", got)
	if got > limit {
		t.Fatalf("warm Fabric.Send allocates %d times, want <= %d", got, limit)
	}
}

// minMallocsPerCall reports the fewest heap allocations any one of runs
// calls of f made, each counted exactly. Sporadic runtime allocations only
// ever add to a call's count, so the minimum is the call's own allocation
// count; a mean drifts with them. The minimum holds only if f itself
// allocates the same on every call, which rules out sync.Pool on the
// measured path: under -race, a pool drops entries at random.
func minMallocsPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	best := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestDispatchObsIdleOverheadUnder10Pct asserts the headline self-overhead
// budget: an idle bus may cost at most 10% of engine dispatch time. Off and
// idle trials alternate, on fresh pairs of testbeds, so host load and
// per-testbed layout luck fall on both sides alike; each side keeps its
// fastest trial, because scheduler noise only ever adds time, so min-of-N
// is the stable estimate of the true cost.
func TestDispatchObsIdleOverheadUnder10Pct(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion skipped under -race")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	const beds = 8
	const trials = 25
	const batch = 4
	modes := []ObsMode{ObsOff, ObsIdle}
	best := []time.Duration{math.MaxInt64, math.MaxInt64}
	for b := 0; b < beds; b++ {
		once := make([]func(), len(modes))
		for m, om := range modes {
			once[m] = dispatchOnce(t, om)
		}
		for i := 0; i < trials; i++ {
			for m := range modes {
				start := time.Now()
				for j := 0; j < batch; j++ {
					once[m]()
				}
				best[m] = min(best[m], time.Since(start))
			}
		}
	}
	off, idle := best[0], best[1]
	if off <= 0 {
		t.Fatalf("obs-off batch measured %v — clock resolution too coarse", off)
	}
	overhead := float64(idle-off) / float64(off)
	t.Logf("dispatch batch: obs-off=%v obs-idle=%v overhead=%.1f%%", off, idle, overhead*100)
	if overhead > 0.10 {
		t.Fatalf("idle obs bus costs %.1f%% of engine dispatch, budget is 10%%", overhead*100)
	}
}

// TestDispatchObsOnCompletes pins the collecting configuration: a full
// Collector+LatencyTracker attachment must survive dispatch (its cost is
// tracked in BENCH snapshots, not hard-gated here — collection is opt-in).
func TestDispatchObsOnCompletes(t *testing.T) {
	once := dispatchOnce(t, ObsOn)
	once()
}
