package store

import (
	"testing"
	"time"
)

func TestReplicatedPutPlacesConsumerFirst(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.SetReplication(2, time.Millisecond)
	var loc Location
	h.Put(workerA, "k", 1000, []string{workerB}, func(l Location, _ error) { loc = l })
	env.Run()
	if loc != LocMemory {
		t.Fatalf("placement = %v, want memory", loc)
	}
	reps := h.replicas["k"]
	if len(reps) != 2 || reps[0] != workerB || reps[1] != workerA {
		t.Fatalf("replicas = %v, want [%s %s]", reps, workerB, workerA)
	}
	if st := h.ReplStats(); st.ReplicaWrites != 1 {
		t.Fatalf("replica writes = %d, want 1 (one cross-node copy)", st.ReplicaWrites)
	}
	// The consumer reads its own shard: a local hit, no fabric traffic.
	var ok bool
	h.Get(workerB, "k", func(_ int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok || h.LocalHits() != 1 {
		t.Fatalf("consumer-local read: ok=%v hits=%d", ok, h.LocalHits())
	}
}

func TestReplicaFallbackAndRepairAfterNodeDeath(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.SetReplication(2, time.Millisecond)
	h.Put(workerA, "k", 1000, []string{workerB}, nil)
	env.Run()
	h.DropWorker(workerB)
	if reps := h.replicas["k"]; len(reps) != 1 || reps[0] != workerA {
		t.Fatalf("replicas after kill = %v, want [%s]", reps, workerA)
	}
	// The reader's copy died with its node: the surviving sibling serves
	// the read over the fabric instead of forcing a miss.
	var ok bool
	h.Get(workerB, "k", func(_ int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok {
		t.Fatal("replica-fallback Get missed")
	}
	st := h.ReplStats()
	if st.ReplicaReads != 1 || st.LostKeys != 0 {
		t.Fatalf("stats = %+v, want 1 replica read, 0 lost", st)
	}
	// env.Run above also ran the repair pass: factor restored.
	if st.ReReplications != 1 {
		t.Fatalf("re-replications = %d, want 1", st.ReReplications)
	}
	if reps := h.replicas["k"]; len(reps) != 2 {
		t.Fatalf("replicas after repair = %v, want 2 copies", reps)
	}
}

func TestReplicationAllCopiesDieIsHonestMiss(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.SetReplication(2, time.Millisecond)
	h.Put(workerA, "k", 1000, []string{workerB}, nil)
	env.Run()
	// Both shards die before the repair pass can run.
	h.DropWorker(workerA)
	h.DropWorker(workerB)
	if st := h.ReplStats(); st.LostKeys != 1 {
		t.Fatalf("lost keys = %d, want 1", st.LostKeys)
	}
	var ok bool
	var err error
	h.Get(workerB, "k", func(_ int64, o bool, e error) { ok, err = o, e })
	env.Run()
	if ok || err != nil {
		t.Fatalf("Get after total loss = (ok=%v, err=%v), want honest miss", ok, err)
	}
}

func TestReplicationSkipsDeadPlacementTargets(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	h.SetReplication(2, time.Millisecond)
	h.SetAlive(func(node string) bool { return node != workerB })
	h.Put(workerA, "k", 1000, []string{workerB}, nil)
	env.Run()
	if reps := h.replicas["k"]; len(reps) != 1 || reps[0] != workerA {
		t.Fatalf("replicas = %v, want only [%s] while %s is down", reps, workerA, workerB)
	}
}

func TestReplicationFactorOneIsOff(t *testing.T) {
	_, h := newHybridRig(t, false, 1<<20)
	if h.ReplicationFactor() != 1 {
		t.Fatalf("default factor = %d", h.ReplicationFactor())
	}
	h.SetReplication(0, 0)
	if h.ReplicationFactor() != 1 {
		t.Fatalf("factor after SetReplication(0) = %d", h.ReplicationFactor())
	}
}
