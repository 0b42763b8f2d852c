package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// tightConfig admits exactly 4 containers before DRAM is exhausted, with a
// per-function limit high enough that memory — not the scale limit — is
// the binding constraint.
func tightConfig() Config {
	return Config{
		Cores:        2,
		DRAM:         1 << 30,
		ContainerMem: 256 << 20,
		ColdStart:    100 * time.Millisecond,
		KeepAlive:    10 * time.Second,
		PerFnLimit:   8,
	}
}

// TestDestroyWakesMemoryWaiters is the deadlock regression test: a waiter
// queued on node memory (not the per-function scale limit) must be served
// when a destroyed container frees its slot — here keep-alive eviction of
// a released one, which releases memory without a hand-over. A pool that
// only handed containers over on Release would leave the waiter queued
// forever.
func TestDestroyWakesMemoryWaiters(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", tightConfig())
	var held []*Container
	for i := 0; i < 4; i++ {
		acquire(n, "a", func(c *Container, cold bool) { held = append(held, c) })
	}
	env.Run()
	if len(held) != 4 {
		t.Fatalf("saturation acquired %d containers, want 4", len(held))
	}
	// Memory is full: a different function's acquire must queue.
	servedB := false
	acquire(n, "b", func(c *Container, cold bool) {
		if c == nil {
			t.Fatal("waiter aborted")
		}
		servedB = true
	})
	env.Run()
	if servedB {
		t.Fatal("acquire of b succeeded despite full memory")
	}
	n.Release(held[0]) // no waiter for a: it goes warm, then expires
	env.Run()
	if !servedB {
		t.Fatal("deadlock: eviction freed memory but the queued waiter was never served")
	}
}

// TestReclaimReleaseWakesMemoryWaiters covers the other memory-freeing
// paths: returning reclaimed quota (negative Reclaim) must also re-examine
// queued waiters.
func TestReclaimReleaseWakesMemoryWaiters(t *testing.T) {
	env := sim.NewEnv()
	cfg := tightConfig()
	n := NewNode(env, "w1", cfg)
	// Reclaim quota so only 3 containers fit.
	if err := n.Reclaim(cfg.ContainerMem); err != nil {
		t.Fatal(err)
	}
	var held []*Container
	for i := 0; i < 3; i++ {
		acquire(n, "a", func(c *Container, cold bool) { held = append(held, c) })
	}
	env.Run()
	served := false
	acquire(n, "b", func(c *Container, cold bool) { served = true })
	env.Run()
	if served {
		t.Fatal("acquire of b succeeded despite exhausted memory")
	}
	if err := n.Reclaim(-cfg.ContainerMem); err != nil {
		t.Fatal(err)
	}
	env.Run()
	if !served {
		t.Fatal("returning reclaimed quota did not wake the queued waiter")
	}
}

// TestAcquireFIFO verifies queue fairness: waiters are served in arrival
// order, and a fresh Acquire cannot jump ahead of an already-queued one
// when a warm container frees up.
func TestAcquireFIFO(t *testing.T) {
	env := sim.NewEnv()
	cfg := tightConfig()
	cfg.PerFnLimit = 1
	n := NewNode(env, "w1", cfg)
	var holder *Container
	acquire(n, "f", func(c *Container, cold bool) { holder = c })
	env.Run()

	var order []string
	wait := func(name string) {
		acquire(n, "f", func(c *Container, cold bool) {
			order = append(order, name)
			n.Release(c)
		})
	}
	wait("A")
	wait("B")
	env.Run()
	if len(order) != 0 {
		t.Fatalf("waiters served while the container was held: %v", order)
	}
	// C arrives at the same instant the container frees: it must queue
	// behind A and B, not race them for the warm container.
	wait("C")
	n.Release(holder)
	env.Run()
	want := []string{"A", "B", "C"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("service order %v, want %v", order, want)
	}
}

// TestDestroyWakesOtherPools verifies the wakeup crosses function pools:
// destroying (evicting) function a's containers must serve waiters queued
// on node memory under functions b and c.
func TestDestroyWakesOtherPools(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", tightConfig())
	var held []*Container
	for i := 0; i < 4; i++ {
		acquire(n, "a", func(c *Container, cold bool) { held = append(held, c) })
	}
	env.Run()
	got := map[string]bool{}
	acquire(n, "b", func(c *Container, cold bool) { got["b"] = c != nil })
	acquire(n, "c", func(c *Container, cold bool) { got["c"] = c != nil })
	env.Run()
	if len(got) != 0 {
		t.Fatalf("waiters served despite full memory: %v", got)
	}
	n.Release(held[0])
	n.Release(held[1])
	env.Run()
	if !got["b"] || !got["c"] {
		t.Fatalf("cross-pool wakeup failed: %v", got)
	}
}

// TestNodeFailAbortsAndRecovers drives the node-death lifecycle: queued
// acquires abort with a nil container, in-flight exec completions are
// dropped, dead containers are inert, and the node serves fresh cold
// starts after Recover.
func TestNodeFailAbortsAndRecovers(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", tightConfig())
	var held *Container
	acquire(n, "a", func(c *Container, cold bool) { held = c })
	env.Run()

	execDone := false
	n.Exec(1.0, func() { execDone = true })

	aborted := false
	for i := 0; i < 3; i++ {
		acquire(n, "a", func(c *Container, cold bool) { _ = c })
	}
	acquire(n, "b", func(c *Container, cold bool) {
		if c != nil {
			t.Fatal("queued acquire got a container from a dead node")
		}
		aborted = true
	})
	env.Schedule(100*time.Millisecond, n.Fail)
	env.Run()
	if !aborted {
		t.Fatal("queued acquire was not aborted by Fail")
	}
	if execDone {
		t.Fatal("exec completion fired on a dead node")
	}
	if !n.Failed() {
		t.Fatal("node not marked failed")
	}
	st := n.Stats()
	if st.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", st.Failures)
	}
	if n.Containers() != 0 || n.memUsed != 0 {
		t.Fatalf("dead node still accounts containers=%d mem=%d", n.Containers(), n.memUsed)
	}

	// Dead containers are inert: releasing one must not disturb the
	// (zeroed) accounting.
	n.Release(held)
	if n.Containers() != 0 || n.memUsed != 0 {
		t.Fatal("dead container release changed accounting")
	}

	// While failed, acquires abort immediately.
	sawAbort := false
	acquire(n, "a", func(c *Container, cold bool) { sawAbort = c == nil })
	env.Run()
	if !sawAbort {
		t.Fatal("acquire on failed node did not abort")
	}

	n.Recover()
	var cold2 bool
	acquire(n, "a", func(c *Container, cold bool) { cold2 = cold })
	env.Run()
	if !cold2 {
		t.Fatal("post-recovery acquire was not a fresh cold start")
	}
}
