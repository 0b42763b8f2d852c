package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// --- Direct passing --------------------------------------------------------

func TestDirectPassingSkipsRemoteHop(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore, FastPath: FastPathOptions{DirectPassing: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed")
	}
	// Every edge of the diamond has a known consumer, so every output is
	// direct-pushed and the remote store is never touched (so no key can
	// leak there).
	if st := rt.Store.Remote().Stats(); st.Puts != 0 || st.Gets != 0 {
		t.Fatalf("remote touched despite direct passing: %+v", st)
	}
	fp := d.FastPathStatsSnapshot()
	if fp.DirectPushes != 4 || fp.DirectFallbacks != 0 {
		t.Fatalf("fast-path stats = %+v, want 4 pushes / 0 fallbacks", fp)
	}
	// Consumers read their pushed copies locally.
	if rt.Store.LocalMisses() != 0 {
		t.Fatalf("local misses = %d, want 0", rt.Store.LocalMisses())
	}
}

func TestDirectPassingFasterOnCrossNodeEdges(t *testing.T) {
	lat := func(direct bool) float64 {
		rt := rig(2, network.MBps(25))
		b := VideoLike()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: ModeWorkerSP, Data: DataStore, NoJitter: true,
				FastPath: FastPathOptions{DirectPassing: direct}})
		if err != nil {
			t.Fatal(err)
		}
		run(t, rt, d) // warm containers
		return run(t, rt, d).Latency().Seconds()
	}
	with, without := lat(true), lat(false)
	if with >= without {
		t.Fatalf("direct passing latency %.3fs not below store-hop %.3fs", with, without)
	}
}

func TestDirectPassingFallsBackWhenPushRejected(t *testing.T) {
	// A remote-only hybrid (no worker memory tier) rejects every push; the
	// engine must fall back to the store hop and still complete.
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	nodes := map[string]*cluster.Node{}
	mems := map[string]*store.MemKV{}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i)
		fab.AddNode(id, network.MBps(100), network.MBps(100))
		nodes[id] = cluster.NewNode(env, id, cluster.DefaultConfig())
		mems[id] = store.NewMemKV(env, id, 8<<30)
	}
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	rt := &Runtime{Env: env, Fabric: fab, Nodes: nodes,
		Store: store.NewHybrid(remote, mems, true), Master: "master"}
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore, FastPath: FastPathOptions{DirectPassing: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed")
	}
	fp := d.FastPathStatsSnapshot()
	if fp.DirectPushes != 0 || fp.DirectFallbacks != 4 {
		t.Fatalf("fast-path stats = %+v, want 0 pushes / 4 fallbacks", fp)
	}
	if st := rt.Store.Remote().Stats(); st.Puts == 0 {
		t.Fatal("fallback never reached the remote store")
	}
}

func TestDirectPassingSkippedUnderReplication(t *testing.T) {
	// Replication needs a durable database copy; direct working copies do
	// not qualify, so the feature must stand down entirely.
	rt := rig(3, network.MBps(50))
	rt.Store.SetReplication(2, 0)
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1", "w2"),
		Options{Mode: ModeWorkerSP, Data: DataStore, FastPath: FastPathOptions{DirectPassing: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed")
	}
	fp := d.FastPathStatsSnapshot()
	if fp.DirectPushes != 0 || fp.DirectFallbacks != 0 {
		t.Fatalf("fast-path stats = %+v, want direct passing fully stood down", fp)
	}
	if rt.Store.ReplStats().ReplicaWrites == 0 {
		t.Fatal("replication produced no replica copies")
	}
}

func TestDirectPassingAttributedOnCriticalPath(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		log, res := observe(t, mode, Options{Data: DataStore,
			FastPath: FastPathOptions{DirectPassing: true}})
		bd := analyze(t, log)
		checkExact(t, bd, res)
		if bd.ByComponent[obs.CompDirect] == 0 {
			t.Fatalf("%v: no direct-passing time on the critical path: %v", mode, bd.ByComponent)
		}
	}
}

// --- DAG-lookahead pre-warm ------------------------------------------------

func TestPrewarmHidesColdStarts(t *testing.T) {
	lat := func(prewarm bool) (float64, FastPathStats) {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: ModeWorkerSP, Data: DataStore, NoJitter: true,
				FastPath: FastPathOptions{Prewarm: prewarm}})
		if err != nil {
			t.Fatal(err)
		}
		// First (all-cold) invocation: this is where lookahead pays.
		res := run(t, rt, d)
		return res.Latency().Seconds(), d.FastPathStatsSnapshot()
	}
	with, fp := lat(true)
	without, _ := lat(false)
	if with >= without {
		t.Fatalf("prewarm latency %.3fs not below baseline %.3fs", with, without)
	}
	if fp.PrewarmIssued == 0 || fp.PrewarmHits == 0 {
		t.Fatalf("fast-path stats = %+v, want issued and claimed pre-warms", fp)
	}
}

// TestPrewarmAddsPoolCapacity pins the PR-7 finding: a lookahead acquire
// must grow the function pool while the predecessor still holds its
// container — not merely reorder acquisitions within existing capacity.
func TestPrewarmAddsPoolCapacity(t *testing.T) {
	g := dag.New("chain")
	a := g.AddTask("a", "f")
	b := g.AddTask("b", "f") // same function: capacity must reach 2
	g.Connect(a, b, 1<<10)
	fns := map[string]workloads.FunctionSpec{
		"f": {Name: "f", ExecSeconds: 0.1, MemPeak: 64 << 20},
	}
	bench := &workloads.Benchmark{Name: "chain", Graph: g, Functions: fns, MonolithicBytes: 1 << 10}
	rt := rig(1, network.MBps(50))
	d, err := NewDeployment(rt, bench, placeAll(bench, "w0"),
		Options{Mode: ModeWorkerSP, Data: DataStore, NoJitter: true,
			FastPath: FastPathOptions{Prewarm: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed")
	}
	if _, peak := rt.Nodes["w0"].ScaleOf("f"); peak != 2 {
		t.Fatalf("pool peak = %d, want 2 (pre-warm overlapping the busy predecessor)", peak)
	}
	// Keep-alive has evicted every released container by the end of the
	// run, so a live one is still held.
	if held := rt.Nodes["w0"].Containers(); held != 0 {
		t.Fatalf("%d containers still held after the run", held)
	}
}

// TestPrewarmPrefersWarmContainer: a pre-warm still cold-starting must not
// be waited on when a warm container sits idle — that would regress below
// feature-off behavior.
func TestPrewarmPrefersWarmContainer(t *testing.T) {
	g := dag.New("chain")
	a := g.AddTask("a", "f")
	b := g.AddTask("b", "f")
	g.Connect(a, b, 1<<10)
	fns := map[string]workloads.FunctionSpec{
		"f": {Name: "f", ExecSeconds: 0.1, MemPeak: 64 << 20},
	}
	bench := &workloads.Benchmark{Name: "chain", Graph: g, Functions: fns, MonolithicBytes: 1 << 10}
	lat := func(prewarm bool) float64 {
		rt := rig(1, network.MBps(50))
		d, err := NewDeployment(rt, bench, placeAll(bench, "w0"),
			Options{Mode: ModeWorkerSP, Data: DataStore, NoJitter: true,
				FastPath: FastPathOptions{Prewarm: prewarm}})
		if err != nil {
			t.Fatal(err)
		}
		return run(t, rt, d).Latency().Seconds()
	}
	with, without := lat(true), lat(false)
	// b reuses a's released warm container in both runs; the in-flight
	// pre-warm must not add wait time.
	if with > without+1e-9 {
		t.Fatalf("prewarm latency %.4fs regressed above baseline %.4fs", with, without)
	}
}

func TestPrewarmCancelledOnFailureSkipWave(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		// The timeout falls after a's 400 ms cold start, when its pre-warms
		// are issued, and before its execution ends.
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, TaskTimeout: 450 * time.Millisecond, MaxReissues: 1,
				FastPath: FastPathOptions{Prewarm: true}})
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, rt, d)
		if !res.Failed {
			t.Fatalf("%v: invocation should have failed (every attempt times out)", mode)
		}
		fp := d.FastPathStatsSnapshot()
		// Source a timed out until its re-issue budget ran out; b and c
		// (pre-warmed during a's attempts) drain as skips and must cancel
		// their slots.
		if fp.PrewarmIssued == 0 || fp.PrewarmCancelled == 0 {
			t.Fatalf("%v: fast-path stats = %+v, want issued and cancelled pre-warms", mode, fp)
		}
		// Keep-alive has evicted every released container by the end of
		// the run, so a live one leaked.
		for id, n := range rt.Nodes {
			if held := n.Containers(); held != 0 {
				t.Fatalf("%v: %d containers leaked on %s", mode, held, id)
			}
		}
	}
}

func TestPrewarmOverlapAttributedOnCriticalPath(t *testing.T) {
	log, res := observe(t, ModeWorkerSP, Options{Data: DataStore, NoJitter: true,
		FastPath: FastPathOptions{Prewarm: true}})
	bd := analyze(t, log)
	checkExact(t, bd, res)
	// The first (cold) invocation claims in-flight pre-warms; their residual
	// tails surface as prewarm time and displace part of plain acquire.
	if bd.ByComponent[obs.CompPrewarmOverlap] == 0 {
		t.Fatalf("no prewarm-overlap time on the critical path: %v", bd.ByComponent)
	}
}

// --- Memoization -----------------------------------------------------------

func TestMemoSecondInvocationHits(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, NoJitter: true,
				FastPath: FastPathOptions{Memoize: true}})
		if err != nil {
			t.Fatal(err)
		}
		leaked := watchRemote(rt)
		var first, second Result
		d.Invoke(func(r Result) {
			first = r
			d.Invoke(func(r2 Result) { second = r2 })
		})
		rt.Env.Run()
		if first.Latency() <= 0 || second.Latency() <= 0 {
			t.Fatalf("%v: invocations did not complete", mode)
		}
		fp := d.FastPathStatsSnapshot()
		if fp.MemoMisses != 4 || fp.MemoHits != 4 {
			t.Fatalf("%v: memo stats = %+v, want 4 misses then 4 hits", mode, fp)
		}
		// A hit skips container acquire and execution entirely.
		if second.Latency() >= first.Latency()/2 {
			t.Fatalf("%v: memoized latency %v not well below first run %v",
				mode, second.Latency(), first.Latency())
		}
		if keys := leaked(); len(keys) != 0 {
			t.Fatalf("%v: keys leaked: %v", mode, keys)
		}
	}
}

func TestMemoDistinctArgsMiss(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore,
			FastPath: FastPathOptions{Memoize: true}})
	if err != nil {
		t.Fatal(err)
	}
	d.InvokeOpts(InvokeOptions{Args: map[string]any{"x": 1}}, func(Result) {
		d.InvokeOpts(InvokeOptions{Args: map[string]any{"x": 2}}, func(Result) {})
	})
	rt.Env.Run()
	if fp := d.FastPathStatsSnapshot(); fp.MemoHits != 0 || fp.MemoMisses != 8 {
		t.Fatalf("memo stats = %+v, want 0 hits across distinct arguments", fp)
	}
}

func TestMemoHitAttributedOnCriticalPath(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore,
			FastPath: FastPathOptions{Memoize: true}})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	rt.Fabric.SetBus(bus)
	for _, n := range rt.Nodes {
		n.SetBus(bus)
	}
	rt.Store.SetBus(bus)
	d.SetObserver(bus)
	var second Result
	d.Invoke(func(Result) {
		d.Invoke(func(r Result) { second = r })
	})
	rt.Env.Run()
	bd := analyzeInv(t, log, 1)
	checkExact(t, bd, second)
	if bd.ByComponent[obs.CompMemoHit] == 0 {
		t.Fatalf("no memo-hit time on the critical path: %v", bd.ByComponent)
	}
	if bd.ByComponent[obs.CompExec] != 0 {
		t.Fatalf("memoized run still shows exec time: %v", bd.ByComponent)
	}
}

// TestMemoHitStillCommitsDurably (satellite): a memo hit must route through
// commitStep so crash replay skips it — DupDrops stays 0 and ReplaySkips
// counts the committed memo-hit steps.
func TestMemoHitStillCommitsDurably(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		jr := journal.New(rt.Env, journal.Config{})
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, Journal: jr,
				FastPath: FastPathOptions{Memoize: true}})
		if err != nil {
			t.Fatal(err)
		}
		var second Result
		secondDone := false
		d.Invoke(func(Result) {
			d.Invoke(func(r Result) { second = r; secondDone = true })
			// Crash once the memoized run has committed at least one step,
			// then restart: replay must skip the committed memo-hit cut.
			var watch func()
			watch = func() {
				if secondDone {
					return
				}
				if jr.Stats().Committed >= 5 {
					d.CrashEngine()
					rt.Env.Schedule(50*time.Millisecond, d.RestartEngine)
					return
				}
				rt.Env.Schedule(time.Millisecond, watch)
			}
			watch()
		})
		rt.Env.Run()
		if !secondDone || second.Failed {
			t.Fatalf("%v: memoized run did not recover (done=%v failed=%v)",
				mode, secondDone, second.Failed)
		}
		ds := d.DurableStatsSnapshot()
		if ds.EngineCrashes != 1 {
			t.Fatalf("%v: crashes = %d, want 1", mode, ds.EngineCrashes)
		}
		if ds.ReplaySkips == 0 {
			t.Fatalf("%v: committed memo-hit steps were not skipped on replay", mode)
		}
		if ds.Journal.DupDrops != 0 {
			t.Fatalf("%v: %d duplicate commits — memo hits re-committed committed steps", mode, ds.Journal.DupDrops)
		}
		if ds.Journal.Committed != 8 {
			t.Fatalf("%v: journal committed = %d, want 8 (two full runs)", mode, ds.Journal.Committed)
		}
		if fp := d.FastPathStatsSnapshot(); fp.MemoHits < 4 {
			t.Fatalf("%v: memo hits = %d, want >= 4", mode, fp.MemoHits)
		}
	}
}

// --- Composition & determinism --------------------------------------------

func TestFastPathAllFeaturesDeterministic(t *testing.T) {
	runOnce := func() (sim.Time, FastPathStats) {
		rt := rig(3, network.MBps(50))
		b := workloads.Epigenomics()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1", "w2"),
			Options{Mode: ModeWorkerSP, Data: DataStore,
				FastPath: FastPathOptions{DirectPassing: true, Prewarm: true, Memoize: true}})
		if err != nil {
			t.Fatal(err)
		}
		var doneAt sim.Time
		d.Invoke(func(Result) {
			d.Invoke(func(Result) { doneAt = rt.Env.Now() })
		})
		rt.Env.Run()
		return doneAt, d.FastPathStatsSnapshot()
	}
	t1, s1 := runOnce()
	t2, s2 := runOnce()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("fast path nondeterministic:\n%v %+v\n%v %+v", t1, s1, t2, s2)
	}
	if t1 == 0 {
		t.Fatal("invocations never completed")
	}
	if s1.DirectPushes == 0 || s1.PrewarmIssued == 0 || s1.MemoHits == 0 {
		t.Fatalf("expected all three features active: %+v", s1)
	}
}

func TestFastPathAllFeaturesExactAttribution(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		log, res := observe(t, mode, Options{Data: DataStore,
			FastPath: FastPathOptions{DirectPassing: true, Prewarm: true, Memoize: true}})
		bd := analyze(t, log)
		checkExact(t, bd, res)
	}
}

func TestFastPathOffByDefault(t *testing.T) {
	if (Options{}).withDefaults().FastPath.Enabled() {
		t.Fatal("fast path enabled by default")
	}
	o := Options{FastPath: FastPathOptions{Memoize: true}}.withDefaults()
	if o.FastPath.MemoLookup != 200*time.Microsecond {
		t.Fatalf("MemoLookup default = %v", o.FastPath.MemoLookup)
	}
}
