package engine

import (
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestFenceRejectsStaleOwner flips the ownership fence while an
// invocation is mid-flight: the stale engine must abandon the invocation
// at the next boundary (no completion callback, no further commits) and
// publish a FenceEvent naming the layer that caught it.
func TestFenceRejectsStaleOwner(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, mode)
		bus := obs.NewBus()
		var fences []obs.FenceEvent
		bus.Subscribe(func(ev obs.Event) {
			if fe, ok := ev.(obs.FenceEvent); ok {
				fences = append(fences, fe)
			}
		})
		d.SetObserver(bus)
		fenced := false
		d.SetFence("A", func(int64) error {
			if fenced {
				return &FencedError{Owner: "B", Epoch: 2}
			}
			return nil
		})
		got := false
		d.Invoke(func(Result) { got = true })
		// 300ms: source `a` is still inside its ~500ms cold start, so the
		// flip lands before any step has committed.
		rt.Env.Schedule(300*time.Millisecond, func() { fenced = true })
		rt.Env.Run()
		if got {
			t.Fatalf("%v: fenced invocation completed on the stale owner", mode)
		}
		ds := d.DurableStatsSnapshot()
		if ds.FencedSteps == 0 {
			t.Fatalf("%v: no steps fenced (stats: %+v)", mode, ds)
		}
		if d.Journal().Stats().Committed != 0 {
			t.Fatalf("%v: stale owner committed %d steps after losing ownership",
				mode, d.Journal().Stats().Committed)
		}
		if len(fences) == 0 {
			t.Fatalf("%v: no FenceEvent published", mode)
		}
		fe := fences[0]
		if fe.Engine != "A" || fe.Epoch != 2 || fe.Inv != 0 {
			t.Fatalf("%v: FenceEvent = %+v", mode, fe)
		}
		switch fe.Where {
		case "dispatch", "acquire", "exec", "store":
		default:
			t.Fatalf("%v: unexpected fence layer %q", mode, fe.Where)
		}
	}
}

// TestHandoffAdoptionRedispatchesTornStepsExactlyOnce is the cross-engine
// half of the torn-batch satellite: engine A crashes with steps b and c
// appended inside an open group-commit window (so the crash drops them
// un-synced), and engine B adopts the invocation from the union journal
// view. The truncated steps must re-dispatch exactly once — one commit per
// step across both logs, zero dup-drops — and the invocation completes on
// B with the dead time attributed to CompHandoff.
func TestHandoffAdoptionRedispatchesTornStepsExactlyOnce(t *testing.T) {
	run := func() (sim.Time, DurableStats) {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		// A 100ms window keeps b's and c's appends buffered long enough for
		// the crash to land inside the open batch.
		jrA := journal.New(rt.Env, journal.Config{BatchWindow: 100 * time.Millisecond})
		jrB := journal.New(rt.Env, journal.Config{})
		place := placeRoundRobin(b, "w0", "w1")
		dA, err := NewDeployment(rt, b, place,
			Options{Mode: ModeWorkerSP, Data: DataStore, Journal: jrA})
		if err != nil {
			t.Fatal(err)
		}
		dB, err := NewDeployment(rt, b, place,
			Options{Mode: ModeWorkerSP, Data: DataStore, Journal: jrB})
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.NewBus()
		log := obs.NewTraceLog()
		bus.Subscribe(log.Record)
		dA.SetObserver(bus)
		dB.SetObserver(bus)

		doneCount := 0
		var res Result
		var doneAt sim.Time
		done := func(r Result) { res = r; doneCount++; doneAt = rt.Env.Now() }
		dA.Invoke(done)
		// Step until a is durable and b+c sit appended in A's open batch.
		var at sim.Time
		for {
			at += sim.Time(time.Millisecond)
			rt.Env.RunUntil(at)
			st := jrA.Stats()
			if st.Appends == 3 && st.Committed == 1 {
				break
			}
			if at > sim.Time(10*time.Second) {
				t.Fatalf("never reached the torn-batch point (stats: %+v)", jrA.Stats())
			}
		}
		dA.CrashEngine()
		if st := jrA.Stats(); st.CrashDropped+st.TornTail != 2 {
			t.Fatalf("crash should drop b and c from the open batch, stats: %+v", st)
		}
		dA.DropInvocations(dA.liveInvIDs())

		view := journal.NewView(jrA, jrB)
		committed := view.CommittedSteps(0)
		if len(committed) != 1 {
			t.Fatalf("union view sees %d committed steps pre-handoff, want 1 (a)", len(committed))
		}
		dB.AdoptInvocation(AdoptSpec{ID: 0, Start: 0, Done: done}, committed)
		rt.Env.Run()

		if doneCount != 1 {
			t.Fatalf("done fired %d times, want exactly once", doneCount)
		}
		if res.Failed {
			t.Fatal("adopted invocation failed")
		}
		ds := dB.DurableStatsSnapshot()
		if ds.Adopted != 1 {
			t.Fatalf("Adopted = %d", ds.Adopted)
		}
		if ds.ReplaySkips != 1 {
			t.Fatalf("ReplaySkips = %d, want 1 (only a was durable)", ds.ReplaySkips)
		}
		if ds.Redispatched != 2 {
			t.Fatalf("Redispatched = %d, want 2 (the truncated b and c)", ds.Redispatched)
		}
		// Exactly once across the federation: 4 steps, 4 commits total over
		// both logs, and neither log ever dup-dropped a second attempt.
		stA, stB := jrA.Stats(), jrB.Stats()
		if stA.Committed+stB.Committed != 4 || stA.DupDrops != 0 || stB.DupDrops != 0 {
			t.Fatalf("commit ledger wrong: A=%+v B=%+v", stA, stB)
		}
		if got := len(view.CommittedSteps(0)); got != 4 {
			t.Fatalf("union view sees %d committed steps post-handoff, want 4", got)
		}
		// The failover dead time is attributed to CompHandoff on the
		// resumed steps' trigger chains.
		bd := analyzeInv(t, log, 0)
		if bd.ByComponent[obs.CompHandoff] == 0 {
			t.Fatalf("no handoff time on the critical path: %v", bd.ByComponent)
		}
		return doneAt, ds
	}
	at1, ds1 := run()
	at2, ds2 := run()
	if at1 != at2 || ds1 != ds2 {
		t.Fatalf("handoff not deterministic: %v/%+v vs %v/%+v", at1, ds1, at2, ds2)
	}
}

// TestDropInvocationsPreventsResurrection: after a successor claims an
// invocation, restarting the old owner must not replay it — the drop
// removed it from the old owner's replay set.
func TestDropInvocationsPreventsResurrection(t *testing.T) {
	rt := rig(2, network.MBps(50))
	d := durableDeploy(t, rt, ModeWorkerSP)
	got := false
	d.Invoke(func(Result) { got = true })
	rt.Env.RunUntil(sim.Time(800 * time.Millisecond))
	d.CrashEngine()
	d.DropInvocations(d.liveInvIDs())
	d.RestartEngine()
	rt.Env.Run()
	if got {
		t.Fatal("dropped invocation was resurrected by the old owner's restart")
	}
	if ds := d.DurableStatsSnapshot(); ds.Redispatched != 0 {
		t.Fatalf("old owner re-dispatched %d steps after the drop", ds.Redispatched)
	}
}
