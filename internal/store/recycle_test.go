package store

import (
	"errors"
	"testing"
	"time"
)

// Remote and hybrid operations are structs recycled through per-store
// free lists. These tests pin the points where an op must not be reused
// yet: after a breaker timeout (its late completion is still to come),
// while it waits in the outage queue, and while its own done callback
// runs.

// TestRecycledTimedOutWriteCompletesOnce issues a second write from the
// first write's timeout callback. The timed-out op is still owed its late
// completion, so the second write must get an op of its own: each done
// runs exactly once, and both placements end up remote.
func TestRecycledTimedOutWriteCompletesOnce(t *testing.T) {
	env, h, remote := brownedOutHybrid(t)
	var firstErrs, secondErrs []error
	var secondLoc Location
	h.Put(workerA, "k1", 1000, nil, func(_ Location, err error) {
		firstErrs = append(firstErrs, err)
		h.Put(workerA, "k2", 1000, nil, func(loc Location, err error) {
			secondErrs = append(secondErrs, err)
			secondLoc = loc
		})
	})
	// Heal after the first write timed out (50 ms), before the second
	// one's watchdog would fire (100 ms): both queued writes drain.
	env.Schedule(60*time.Millisecond, func() { remote.SetAvailable(true) })
	env.Run()
	if len(firstErrs) != 1 || !errors.Is(firstErrs[0], ErrStoreTimeout) {
		t.Fatalf("first write done calls = %v, want one ErrStoreTimeout", firstErrs)
	}
	if len(secondErrs) != 1 || secondErrs[0] != nil || secondLoc != LocRemote {
		t.Fatalf("second write done calls = %v (loc %v), want one nil at LocRemote", secondErrs, secondLoc)
	}
	if h.placements["k1"] != LocRemote || !stored(remote, "k1") {
		t.Fatalf("late write not restored: Where=%v Has=%v", h.placements["k1"], stored(remote, "k1"))
	}
	if h.placements["k2"] != LocRemote || !stored(remote, "k2") {
		t.Fatalf("second write lost: Where=%v Has=%v", h.placements["k2"], stored(remote, "k2"))
	}
	// Both ops are free again, so a third write reuses one of them and
	// still completes once.
	calls := 0
	h.Put(workerA, "k3", 1000, nil, func(loc Location, err error) {
		calls++
		if loc != LocRemote || err != nil {
			t.Errorf("third write = (%v, %v)", loc, err)
		}
	})
	env.Run()
	if calls != 1 || len(firstErrs) != 1 || len(secondErrs) != 1 {
		t.Fatalf("done calls after reuse: first=%d second=%d third=%d, want 1 each",
			len(firstErrs), len(secondErrs), calls)
	}
}

// TestRecycledOutageQueueDrainsInOrder queues writes behind two outages.
// The second round runs on ops recycled from the first, and both drain in
// arrival order with one done call per write.
func TestRecycledOutageQueueDrainsInOrder(t *testing.T) {
	env, _, remote := testRig(t)
	for round := 0; round < 2; round++ {
		remote.SetAvailable(false)
		var order []int
		const n = 5
		for i := 0; i < n; i++ {
			env.Schedule(time.Duration(i)*time.Millisecond, func() {
				remote.Put(workerA, "k", 10_000, func() { order = append(order, i) })
			})
		}
		env.Schedule(10*time.Millisecond, func() {
			if p := remote.PendingOps(); p != n {
				t.Errorf("round %d: %d ops queued during the outage, want %d", round, p, n)
			}
			remote.SetAvailable(true)
		})
		env.Run()
		if len(order) != n {
			t.Fatalf("round %d: %d of %d writes completed: %v", round, len(order), n, order)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("round %d: completion order %v, want arrival order", round, order)
			}
		}
		if p := remote.PendingOps(); p != 0 {
			t.Fatalf("round %d: %d ops still queued after the outage", round, p)
		}
	}
	if st := remote.Stats(); st.Puts != 10 {
		t.Fatalf("puts = %d, want 10", st.Puts)
	}
}

// TestRecycledDoneIssuesNewOp chains operations from inside done
// callbacks, on the remote store and through the hybrid store: each new
// op is issued while the op that called it is still finishing, so it must
// not be handed that op.
func TestRecycledDoneIssuesNewOp(t *testing.T) {
	env, _, remote := testRig(t)
	var got []int64
	remote.Put(workerA, "a", 1000, func() {
		remote.Put(workerA, "b", 2000, func() {
			remote.Get(workerB, "a", func(size int64, ok bool) {
				if !ok {
					t.Error("get a missed")
				}
				got = append(got, size)
				remote.Get(workerB, "b", func(size int64, ok bool) {
					if !ok {
						t.Error("get b missed")
					}
					got = append(got, size)
				})
			})
		})
	})
	env.Run()
	if len(got) != 2 || got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("chained remote gets = %v, want [1000 2000]", got)
	}

	env, h := newHybridRig(t, false, 1<<20)
	var sizes []int64
	h.Put(workerA, "local", 300, []string{workerA}, func(loc Location, _ error) {
		if loc != LocMemory {
			t.Errorf("local put went to %v", loc)
		}
		h.Put(workerA, "remote", 400, []string{workerB}, func(loc Location, _ error) {
			if loc != LocRemote {
				t.Errorf("cross-worker put went to %v", loc)
			}
			h.Get(workerA, "local", func(size int64, ok bool, err error) {
				if !ok || err != nil {
					t.Errorf("get local = (%v, %v)", ok, err)
				}
				sizes = append(sizes, size)
				h.Get(workerB, "remote", func(size int64, ok bool, err error) {
					if !ok || err != nil {
						t.Errorf("get remote = (%v, %v)", ok, err)
					}
					sizes = append(sizes, size)
				})
			})
		})
	})
	env.Run()
	if len(sizes) != 2 || sizes[0] != 300 || sizes[1] != 400 {
		t.Fatalf("chained hybrid gets = %v, want [300 400]", sizes)
	}
	if h.LocalHits() != 1 || h.LocalMisses() != 1 {
		t.Fatalf("local hits/misses = %d/%d, want 1/1", h.LocalHits(), h.LocalMisses())
	}
}
