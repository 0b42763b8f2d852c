package store

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPushDirectPlacesOnTargets(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	done := false
	if !h.PushDirect(workerA, "k", 5000, []string{workerA, workerB}, func() { done = true }) {
		t.Fatal("push rejected with quota available")
	}
	env.Run()
	if !done {
		t.Fatal("done never fired")
	}
	if h.placements["k"] != LocMemory {
		t.Fatalf("placement = %v, want memory", h.placements["k"])
	}
	if got := h.direct["k"]; len(got) != 2 || got[0] != workerA || got[1] != workerB {
		t.Fatalf("holders = %v", got)
	}
	if !h.mem[workerA].Has("k") || !h.mem[workerB].Has("k") {
		t.Fatal("copies missing from target memory tiers")
	}
	st := h.DirectStats()
	if st.Pushes != 1 || st.Copies != 2 || st.RemoteCopies != 1 || st.BytesPushed != 5000 {
		t.Fatalf("stats = %+v", st)
	}
	// Both consumers read locally, with no remote round trip.
	for _, w := range []string{workerA, workerB} {
		var ok bool
		h.Get(w, "k", func(_ int64, o bool, _ error) { ok = o })
		env.Run()
		if !ok {
			t.Fatalf("consumer %s missed its direct copy", w)
		}
	}
	if h.LocalHits() != 2 || h.LocalMisses() != 0 {
		t.Fatalf("hits=%d misses=%d, want 2/0", h.LocalHits(), h.LocalMisses())
	}
	if h.Remote().Stats().Gets != 0 || h.Remote().Stats().Puts != 0 {
		t.Fatal("direct push touched the remote store")
	}
}

func TestPushDirectAllOrNothing(t *testing.T) {
	env, h := newHybridRig(t, false, 1000)
	// Fill workerB so the second target cannot fit: the push must place
	// nothing anywhere and report false synchronously.
	h.mem[workerB].TryPut("filler", 900, nil)
	env.Run()
	if h.PushDirect(workerA, "k", 500, []string{workerA, workerB}, nil) {
		t.Fatal("push accepted past a full target")
	}
	if h.mem[workerA].Has("k") || h.mem[workerB].Has("k") {
		t.Fatal("partial placement after rejected push")
	}
	if h.placements["k"] != LocNone {
		t.Fatalf("placement = %v, want none", h.placements["k"])
	}
	if st := h.DirectStats(); st.Pushes != 0 || st.Copies != 0 {
		t.Fatalf("stats after rejected push = %+v", st)
	}
}

func TestPushDirectRejectedWhenRemoteOnly(t *testing.T) {
	_, h := newHybridRig(t, true, 1<<20)
	if h.PushDirect(workerA, "k", 100, []string{workerB}, nil) {
		t.Fatal("push accepted with the local tier disabled")
	}
}

func TestPushDirectRejectedWhenTargetDead(t *testing.T) {
	_, h := newHybridRig(t, false, 1<<20)
	h.SetAlive(func(node string) bool { return node != workerB })
	if h.PushDirect(workerA, "k", 100, []string{workerB}, nil) {
		t.Fatal("push accepted onto a dead target")
	}
}

func TestPushDirectCrossNodePaysFabric(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<30)
	var doneAt sim.Time
	// 50 MB over the 100 MB/s worker links ≈ 0.5s; far more than the
	// ~0.33s a same-node memory copy would take, so a sub-copy-time finish
	// would mean the fabric leg was skipped.
	h.PushDirect(workerA, "k", 50_000_000, []string{workerB}, func() { doneAt = env.Now() })
	env.Run()
	if s := doneAt.Seconds(); s < 0.4 {
		t.Fatalf("cross-node push finished in %vs, fabric transfer skipped", s)
	}
}

func TestPushDirectFallbackReadFromSurvivor(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.PushDirect(workerA, "k", 4000, []string{workerA, workerB}, nil)
	env.Run()
	// workerA dies: its copy is gone, but workerB's survives, so a reader
	// anywhere fetches from workerB over the fabric instead of missing.
	h.DropWorker(workerA)
	if got := h.direct["k"]; len(got) != 1 || got[0] != workerB {
		t.Fatalf("holders after drop = %v", got)
	}
	var ok bool
	h.Get(workerA, "k", func(_ int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok {
		t.Fatal("read missed despite a surviving holder")
	}
	if st := h.DirectStats(); st.FallbackReads != 1 {
		t.Fatalf("FallbackReads = %d, want 1", st.FallbackReads)
	}
}

func TestPushDirectAllHoldersDeadMissesHonestly(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.PushDirect(workerA, "k", 4000, []string{workerA, workerB}, nil)
	env.Run()
	h.DropWorker(workerA)
	h.DropWorker(workerB)
	if st := h.DirectStats(); st.LostKeys != 1 {
		t.Fatalf("LostKeys = %d, want 1", st.LostKeys)
	}
	var ok bool
	called := false
	h.Get(workerA, "k", func(_ int64, o bool, _ error) { called, ok = true, o })
	env.Run()
	if !called || ok {
		t.Fatalf("Get after total holder loss = (called=%v ok=%v), want honest miss", called, ok)
	}
}

func TestPushDirectDeleteReleasesEveryCopy(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.PushDirect(workerA, "k", 4000, []string{workerA, workerB}, nil)
	env.Run()
	h.Delete("k")
	if h.mem[workerA].Has("k") || h.mem[workerB].Has("k") {
		t.Fatal("copies survived delete")
	}
	if h.mem[workerA].Used() != 0 || h.mem[workerB].Used() != 0 {
		t.Fatal("quota not released")
	}
	if h.direct["k"] != nil || h.placements["k"] != LocNone {
		t.Fatal("bookkeeping survived delete")
	}
}

func TestPushDirectSameNodeIsMemorySpeed(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	var doneAt sim.Time
	h.PushDirect(workerA, "k", 1000, []string{workerA}, func() { doneAt = env.Now() })
	env.Run()
	// A producer-local copy pays only the MemKV op latency + copy time —
	// well under a millisecond for 1 KB.
	if doneAt.Duration() > time.Millisecond {
		t.Fatalf("same-node push took %v", doneAt.Duration())
	}
	if st := h.DirectStats(); st.RemoteCopies != 0 {
		t.Fatalf("RemoteCopies = %d for a same-node push", st.RemoteCopies)
	}
}
