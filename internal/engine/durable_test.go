package engine

import (
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

func durableDeploy(t *testing.T, rt *Runtime, mode Mode) *Deployment {
	t.Helper()
	b := miniBench()
	jr := journal.New(rt.Env, journal.Config{})
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: mode, Data: DataStore, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDurableRunCommitsEveryStep(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, mode)
		res := run(t, rt, d)
		if res.Failed {
			t.Fatalf("%v: invocation failed", mode)
		}
		st := d.Journal().Stats()
		// The mini diamond has 4 task nodes; each commits exactly once.
		if st.Committed != 4 || st.DupDrops != 0 {
			t.Fatalf("%v: journal stats = %+v, want 4 committed / 0 dups", mode, st)
		}
		if got := len(d.Journal().CommittedSteps(0)); got != 4 {
			t.Fatalf("%v: %d committed steps recorded, want 4", mode, got)
		}
	}
}

// TestCrashRestartReplaysCommittedCut crashes the engine mid-run and
// restarts it: the invocation must complete, committed steps must not
// re-execute (no duplicate journal appends), and only the uncommitted
// frontier is re-dispatched.
func TestCrashRestartReplaysCommittedCut(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, mode)
		var res Result
		got := false
		d.Invoke(func(r Result) { res = r; got = true })
		// 800ms: source `a` (cold start + 0.1s exec, committed ~620ms) is
		// durable; b and c are in flight and die with the engine.
		rt.Env.RunUntil(sim.Time(800 * time.Millisecond))
		if got {
			t.Fatalf("%v: invocation finished before the crash point", mode)
		}
		d.CrashEngine()
		if !d.EngineDown() {
			t.Fatalf("%v: engine not down after crash", mode)
		}
		rt.Env.RunUntil(sim.Time(1200 * time.Millisecond))
		if got {
			t.Fatalf("%v: invocation completed while the engine was down", mode)
		}
		d.RestartEngine()
		rt.Env.Run()
		if !got || res.Failed {
			t.Fatalf("%v: invocation did not complete after restart (got=%v failed=%v)", mode, got, res.Failed)
		}
		ds := d.DurableStatsSnapshot()
		if ds.EngineCrashes != 1 {
			t.Fatalf("%v: crashes = %d", mode, ds.EngineCrashes)
		}
		if ds.ReplaySkips == 0 {
			t.Fatalf("%v: no committed steps were skipped on replay", mode)
		}
		if ds.Redispatched == 0 {
			t.Fatalf("%v: nothing re-dispatched on replay", mode)
		}
		if ds.Journal.DupDrops != 0 {
			t.Fatalf("%v: %d committed steps re-executed after restart", mode, ds.Journal.DupDrops)
		}
		if ds.Journal.Committed != 4 {
			t.Fatalf("%v: journal committed = %d, want 4", mode, ds.Journal.Committed)
		}
	}
}

// TestInvokeWhileDownDispatchesOnRestart submits an invocation into a
// crashed engine: it must queue (not run) and start from scratch when the
// engine comes back.
func TestInvokeWhileDownDispatchesOnRestart(t *testing.T) {
	rt := rig(2, network.MBps(50))
	d := durableDeploy(t, rt, ModeWorkerSP)
	d.CrashEngine()
	var res Result
	got := false
	d.Invoke(func(r Result) { res = r; got = true })
	rt.Env.Run()
	if got {
		t.Fatal("invocation ran on a crashed engine")
	}
	d.RestartEngine()
	rt.Env.Run()
	if !got || res.Failed {
		t.Fatalf("invocation after restart: got=%v failed=%v", got, res.Failed)
	}
	if st := d.Journal().Stats(); st.Committed != 4 {
		t.Fatalf("journal committed = %d, want 4", st.Committed)
	}
}

// TestLostInputReexecutesCommittedProducer loses a committed step's
// outputs (node memory wiped during the engine-down window) and checks
// the replayed consumer re-runs the producer instead of wedging — with
// the journal dup-dropping the producer's second commit.
func TestLostInputReexecutesCommittedProducer(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	jr := journal.New(rt.Env, journal.Config{})
	// Single-worker placement so outputs live in w0's memory shard.
	d, err := NewDeployment(rt, b, placeAll(b, "w0"),
		Options{Mode: ModeWorkerSP, Data: DataStore, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	got := false
	d.Invoke(func(r Result) { res = r; got = true })
	rt.Env.RunUntil(sim.Time(800 * time.Millisecond))
	d.CrashEngine()
	// The node's memory dies with the crash window: a's committed outputs
	// are gone.
	rt.Store.DropWorker("w0")
	d.RestartEngine()
	rt.Env.Run()
	if !got || res.Failed {
		t.Fatalf("invocation did not recover: got=%v failed=%v", got, res.Failed)
	}
	ds := d.DurableStatsSnapshot()
	if ds.LostInputs == 0 || ds.Reexecs == 0 {
		t.Fatalf("stats = %+v, want lost inputs and a producer re-execution", ds)
	}
	if ds.Journal.DupDrops == 0 {
		t.Fatal("re-executed producer's commit was not dup-dropped")
	}
}

// TestDurableCrashRecoveryDeterministic runs the same crash/restart
// sequence twice and requires identical completion times and counters.
func TestDurableCrashRecoveryDeterministic(t *testing.T) {
	runOnce := func() (sim.Time, DurableStats) {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, ModeWorkerSP)
		var doneAt sim.Time
		d.Invoke(func(Result) { doneAt = rt.Env.Now() })
		rt.Env.Schedule(150*time.Millisecond, d.CrashEngine)
		rt.Env.Schedule(400*time.Millisecond, d.RestartEngine)
		rt.Env.Run()
		return doneAt, d.DurableStatsSnapshot()
	}
	t1, s1 := runOnce()
	t2, s2 := runOnce()
	if t1 != t2 {
		t.Fatalf("completion times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("durable stats differ:\n%+v\n%+v", s1, s2)
	}
	if t1 == 0 {
		t.Fatal("invocation never completed")
	}
}

// TestRecoveryAttributedOnCriticalPath checks the crash/restart window
// surfaces in the critical-path breakdown as replay (or recovery) time
// and the attribution still partitions the whole latency exactly.
func TestRecoveryAttributedOnCriticalPath(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, mode)
		bus := obs.NewBus()
		log := obs.NewTraceLog()
		bus.Subscribe(log.Record)
		rt.Fabric.SetBus(bus)
		for _, n := range rt.Nodes {
			n.SetBus(bus)
		}
		rt.Store.SetBus(bus)
		d.SetObserver(bus)
		var res Result
		d.Invoke(func(r Result) { res = r })
		rt.Env.Schedule(150*time.Millisecond, d.CrashEngine)
		rt.Env.Schedule(400*time.Millisecond, d.RestartEngine)
		rt.Env.Run()
		if res.Failed {
			t.Fatalf("%v: invocation failed", mode)
		}
		bd := analyzeInv(t, log, 0)
		checkExact(t, bd, res)
		if bd.ByComponent[obs.CompReplay] == 0 {
			t.Fatalf("%v: no replay time on the critical path: %v", mode, bd.ByComponent)
		}
	}
}

// TestReplacementAvoidsScheduledFaultWindow (satellite): a stranded
// task's replacement must skip workers the avoid predicate excludes —
// nodes sitting inside an injected NodeDown window — unless every
// survivor is excluded.
func TestReplacementAvoidsScheduledFaultWindow(t *testing.T) {
	rt := rig(3, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"),
		Options{Mode: ModeWorkerSP, Data: DataStore, MaxReissues: 4})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	var replacedTo []string
	bus.Subscribe(func(ev obs.Event) {
		if se, ok := ev.(obs.StepEvent); ok && se.State == obs.StepReplaced {
			replacedTo = append(replacedTo, se.Worker)
		}
	})
	d.SetObserver(bus)
	// w1 sits inside a scheduled (not yet applied) fault window; w0 dies
	// for real before dispatch.
	d.SetAvoid(func(w string) bool { return w == "w1" })
	rt.Nodes["w0"].Fail()
	var res Result
	got := false
	d.Invoke(func(r Result) { res = r; got = true })
	rt.Env.Schedule(2*time.Second, rt.Nodes["w0"].Recover)
	rt.Env.Run()
	if !got || res.Failed {
		t.Fatalf("invocation did not recover: got=%v failed=%v", got, res.Failed)
	}
	if len(replacedTo) == 0 {
		t.Fatal("no tasks were re-placed off the dead node")
	}
	for i, w := range replacedTo {
		if w == "w1" {
			t.Fatalf("replacement %d landed on avoided worker w1 (all: %v)", i, replacedTo)
		}
	}
}

// TestReplacementFallsBackWhenAllAvoided: if the predicate excludes every
// survivor, it is ignored — a doomed placement beats none.
func TestReplacementFallsBackWhenAllAvoided(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"),
		Options{Mode: ModeWorkerSP, Data: DataStore, MaxReissues: 4})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAvoid(func(string) bool { return true })
	rt.Nodes["w0"].Fail()
	var res Result
	got := false
	d.Invoke(func(r Result) { res = r; got = true })
	rt.Env.Schedule(2*time.Second, rt.Nodes["w0"].Recover)
	rt.Env.Run()
	if !got || res.Failed {
		t.Fatalf("all-avoided fallback broke recovery: got=%v failed=%v", got, res.Failed)
	}
}
