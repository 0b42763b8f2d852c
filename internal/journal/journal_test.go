package journal

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func testCfg() Config {
	return Config{SyncLatency: 2 * time.Millisecond, BatchWindow: 500 * time.Microsecond}
}

func rec(inv int64, step int) Record {
	return Record{Workflow: "wf", Inv: inv, Step: step, AttemptSeq: 1}
}

func TestGroupCommitBatchesAndDurableInstant(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	var at0, at1 sim.Time
	env.Schedule(0, func() {
		w.Append(rec(1, 0), func(at sim.Time) { at0 = at })
	})
	env.Schedule(100*time.Microsecond, func() {
		w.Append(rec(1, 1), func(at sim.Time) { at1 = at })
	})
	env.Run()
	// Both records ride one batch: window closes at 500µs, sync at 2.5ms.
	want := sim.Time(2500 * time.Microsecond)
	if at0 != want || at1 != want {
		t.Fatalf("durable instants = %v, %v; want both %v", at0, at1, want)
	}
	st := w.Stats()
	if st.Syncs != 1 || st.Committed != 2 {
		t.Fatalf("stats = %+v; want 1 sync, 2 committed", st)
	}
	if !w.durable[stepKey{1, 0}] || !w.durable[stepKey{1, 1}] {
		t.Fatalf("records not marked committed")
	}
}

// TestAppendFromDurabilityCallbackRidesNextBatch: a record appended from a
// durability callback is sealed into the next batch as soon as the fsync
// ends, and the batch timer it armed is disarmed with it. A record buffered
// while that batch syncs then waits for the sync, not for the stale timer,
// so every record commits exactly once.
func TestAppendFromDurabilityCallbackRidesNextBatch(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	var at1, at2 sim.Time
	env.Schedule(0, func() {
		w.Append(rec(1, 0), func(sim.Time) {
			w.Append(rec(1, 1), func(at sim.Time) { at1 = at })
		})
	})
	// Mid-sync of the second batch, before the stale timer would fire.
	env.Schedule(2700*time.Microsecond, func() {
		w.Append(rec(1, 2), func(at sim.Time) { at2 = at })
	})
	env.Run()
	// Batch 1 syncs [0.5ms, 2.5ms]; batch 2 [2.5ms, 4.5ms]; batch 3
	// [4.5ms, 6.5ms].
	if at1 != sim.Time(4500*time.Microsecond) || at2 != sim.Time(6500*time.Microsecond) {
		t.Fatalf("durable instants = %v, %v; want 4.5ms, 6.5ms", at1, at2)
	}
	if st := w.Stats(); st.Syncs != 3 || st.Committed != 3 {
		t.Fatalf("stats = %+v; want 3 syncs, 3 committed", st)
	}
}

func TestDuplicateAppendDropped(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	env.Schedule(0, func() {
		w.Append(rec(1, 0), nil)
		// Same (inv, step), stale re-issued attempt: dropped while buffered.
		dup := rec(1, 0)
		dup.AttemptSeq = 2
		called := false
		w.Append(dup, func(sim.Time) { called = true })
		if !called {
			// Callback is scheduled, not synchronous; check after run.
		}
	})
	env.Run()
	// A third append after the commit is also dropped.
	w.Append(rec(1, 0), nil)
	env.Run()
	st := w.Stats()
	if st.DupDrops != 2 {
		t.Fatalf("DupDrops = %d; want 2", st.DupDrops)
	}
	if st.Committed != 1 || len(w.Entries()) != 1 {
		t.Fatalf("committed %d entries; want exactly 1", st.Committed)
	}
	if got := w.Entries()[0].AttemptSeq; got != 1 {
		t.Fatalf("surviving attemptSeq = %d; want first writer (1)", got)
	}
}

func TestCrashDropsOpenBatch(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	env.Schedule(0, func() {
		fired := false
		w.Append(rec(1, 0), func(sim.Time) { fired = true })
		// Crash before the window closes: nothing durable, callback dead.
		env.Schedule(100*time.Microsecond, func() {
			w.Crash()
			if fired {
				t.Errorf("callback fired for a record lost at crash")
			}
		})
	})
	env.Run()
	st := w.Stats()
	if st.CrashDropped != 1 || st.Committed != 0 {
		t.Fatalf("stats = %+v; want 1 crash-dropped, 0 committed", st)
	}
	if w.durable[stepKey{1, 0}] {
		t.Fatalf("record committed despite crash before sync")
	}
	// The key is free again after the crash: a re-append commits.
	w.Append(rec(1, 0), nil)
	env.Run()
	if !w.durable[stepKey{1, 0}] {
		t.Fatalf("re-append after crash did not commit")
	}
}

func TestCrashTearsSyncingBatchDeterministically(t *testing.T) {
	run := func() (committed []int, torn int64) {
		env := sim.NewEnv()
		w := New(env, testCfg())
		env.Schedule(0, func() {
			for i := 0; i < 4; i++ {
				w.Append(rec(1, i), nil)
			}
		})
		// Window closes at 500µs; fsync completes at 2.5ms. Crash at
		// 1.5ms = halfway through the sync: half the batch survives.
		env.Schedule(1500*time.Microsecond, w.Crash)
		env.Run()
		for step := 0; step < 4; step++ {
			if w.durable[stepKey{1, step}] {
				committed = append(committed, step)
			}
		}
		return committed, w.Stats().TornTail
	}
	c1, t1 := run()
	c2, t2 := run()
	if len(c1) != 2 || t1 != 2 {
		t.Fatalf("committed %v torn %d; want prefix of 2 survive, 2 torn", c1, t1)
	}
	if len(c1) != len(c2) || t1 != t2 || c1[0] != c2[0] || c1[1] != c2[1] {
		t.Fatalf("torn tail nondeterministic: %v/%d vs %v/%d", c1, t1, c2, t2)
	}
	// The surviving records are a prefix, not an arbitrary subset.
	if c1[0] != 0 || c1[1] != 1 {
		t.Fatalf("survivors %v; want the batch prefix [0 1]", c1)
	}
}

func TestAppendsDuringSyncFormNextBatch(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	env.Schedule(0, func() { w.Append(rec(1, 0), nil) })
	// Arrives at 1ms, mid-fsync of the first batch: queues for batch 2,
	// which starts immediately when the disk frees at 2.5ms.
	env.Schedule(time.Millisecond, func() { w.Append(rec(1, 1), nil) })
	var at1 sim.Time
	env.Schedule(time.Millisecond, func() {
		w.Append(rec(1, 2), func(at sim.Time) { at1 = at })
	})
	env.Run()
	if st := w.Stats(); st.Syncs != 2 || st.Committed != 3 {
		t.Fatalf("stats = %+v; want 2 syncs, 3 committed", st)
	}
	if want := sim.Time(4500 * time.Microsecond); at1 != want {
		t.Fatalf("second batch durable at %v; want %v", at1, want)
	}
}

func TestCommittedStepsAndEntries(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	env.Schedule(0, func() {
		w.Append(Record{Workflow: "wf", Inv: 1, Step: 3, AttemptSeq: 2, Outputs: []string{"wf/1/e0.0"}}, nil)
		w.Append(rec(2, 0), nil)
	})
	env.Run()
	steps := w.CommittedSteps(1)
	if len(steps) != 1 {
		t.Fatalf("CommittedSteps(1) = %v; want 1 entry", steps)
	}
	e := steps[3]
	if e.AttemptSeq != 2 || len(e.Outputs) != 1 || e.At == 0 {
		t.Fatalf("entry = %+v; want attemptSeq 2, one output, nonzero At", e)
	}
	if len(w.byInv) != 2 || w.byInv[1] == nil || w.byInv[2] == nil {
		t.Fatalf("invocations with durable records = %v; want 1 and 2", w.byInv)
	}
	if got := w.Entries(); len(got) != 2 || got[0].Inv != 1 || got[1].Inv != 2 {
		t.Fatalf("Entries = %v; want commit order [inv1 inv2]", got)
	}
}

// Satellite: Crash landing inside an open group-commit BatchWindow — no
// fsync has even started, so the torn tail is the whole open batch and the
// durable prefix is exactly the last completed fsync.
func TestCrashInsideOpenBatchWindowTruncatesToLastFsync(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	// First batch: steps 0,1 — let it commit fully (durable at 2.5ms).
	env.Schedule(0, func() {
		w.Append(rec(1, 0), nil)
		w.Append(rec(1, 1), nil)
	})
	// Second batch opens at 4ms; crash lands at 4.2ms, inside the 500µs
	// window, before closeBatch ever seals it.
	env.Schedule(4*time.Millisecond, func() {
		w.Append(rec(1, 2), nil)
		w.Append(rec(1, 3), nil)
	})
	env.Schedule(4200*time.Microsecond, w.Crash)
	env.Run()
	st := w.Stats()
	if st.Committed != 2 {
		t.Fatalf("committed = %d; want 2 (last fsync only)", st.Committed)
	}
	if st.CrashDropped != 2 {
		t.Fatalf("crashDropped = %d; want 2 (the open batch)", st.CrashDropped)
	}
	if st.TornTail != 0 {
		t.Fatalf("tornTail = %d; want 0 (no fsync was in flight)", st.TornTail)
	}
	if w.durable[stepKey{1, 2}] || w.durable[stepKey{1, 3}] {
		t.Fatal("open-batch records must not be durable after crash")
	}
	// The truncated steps are re-appendable: a successor replaying this log
	// re-dispatches them and their commits are NOT duplicate-dropped.
	before := w.Stats().DupDrops
	w.Append(rec(1, 2), nil)
	w.Append(rec(1, 3), nil)
	env.Run()
	st = w.Stats()
	if st.DupDrops != before {
		t.Fatalf("re-append of truncated steps dup-dropped (dupDrops %d -> %d)", before, st.DupDrops)
	}
	if !w.durable[stepKey{1, 2}] || !w.durable[stepKey{1, 3}] {
		t.Fatal("re-appended truncated steps must commit")
	}
}

// Fence at Append: a stale writer's record is dropped, never commits, and
// its callback never fires.
func TestFenceRejectsAtAppend(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	allow := true
	w.SetFence(func(Record) bool { return allow })
	env.Schedule(0, func() { w.Append(rec(1, 0), nil) })
	env.Schedule(3*time.Millisecond, func() {
		allow = false
		w.Append(rec(1, 1), func(sim.Time) { t.Error("fenced append callback fired") })
	})
	env.Run()
	st := w.Stats()
	if st.Fenced != 1 || st.Committed != 1 {
		t.Fatalf("stats = %+v; want 1 fenced, 1 committed", st)
	}
	if w.durable[stepKey{1, 1}] {
		t.Fatal("fenced record must not be durable")
	}
}

// Fence at sync completion: a record accepted into the batch under the old
// epoch is rejected when its fsync lands after the ownership change —
// the log's last line of defense against a double commit.
func TestFenceRejectsAtSyncCompletion(t *testing.T) {
	env := sim.NewEnv()
	w := New(env, testCfg())
	allow := true
	w.SetFence(func(Record) bool { return allow })
	env.Schedule(0, func() {
		w.Append(rec(1, 0), func(sim.Time) { t.Error("callback fired for record fenced at sync") })
	})
	// Batch closes at 500µs, fsync lands at 2.5ms; fence flips at 1ms —
	// mid-sync, after the record was accepted.
	env.Schedule(time.Millisecond, func() { allow = false })
	env.Run()
	st := w.Stats()
	if st.Fenced != 1 || st.Committed != 0 {
		t.Fatalf("stats = %+v; want 1 fenced, 0 committed", st)
	}
	// The step is re-appendable by the new owner once the fence readmits it.
	allow = true
	w.Append(rec(1, 0), nil)
	env.Run()
	if !w.durable[stepKey{1, 0}] {
		t.Fatal("new owner's re-append must commit")
	}
	if w.Stats().DupDrops != 0 {
		t.Fatalf("dupDrops = %d; want 0", w.Stats().DupDrops)
	}
}

// View: cross-log union for handoff replay — committed steps scattered
// across two engines' logs read as one invocation history.
func TestViewUnionsLogsForHandoff(t *testing.T) {
	env := sim.NewEnv()
	a := New(env, testCfg())
	b := New(env, testCfg())
	env.Schedule(0, func() {
		a.Append(rec(7, 0), nil)
		a.Append(rec(7, 1), nil)
	})
	env.Schedule(5*time.Millisecond, func() {
		b.Append(rec(7, 2), nil)
		b.Append(rec(8, 0), nil)
	})
	env.Run()
	v := NewView(a, b)
	steps := v.CommittedSteps(7)
	if len(steps) != 3 {
		t.Fatalf("CommittedSteps(7) = %d entries; want 3", len(steps))
	}
	for _, step := range []int{0, 1, 2} {
		if _, ok := steps[step]; !ok {
			t.Fatalf("view missing (7,%d)", step)
		}
	}
	if steps := v.CommittedSteps(8); len(steps) != 1 {
		t.Fatalf("CommittedSteps(8) = %d entries; want 1", len(steps))
	}
}
