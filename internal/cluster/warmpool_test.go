package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// These tests pin the warm-pool ordering and admission-accounting contracts
// that the data-plane fast path leans on (pre-warm claims assume the pool
// behaves exactly as documented).

// TestWarmReuseNewestFirstOldestEvicts pins the warm-pool order end to end:
// reuse pops the most recently released container (LIFO), so the oldest
// idle containers keep aging toward their keep-alive expiry and evict
// first. If reuse were FIFO the oldest container would be refreshed on
// every hit and the eviction times below would shift.
func TestWarmReuseNewestFirstOldestEvicts(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // KeepAlive 10s
	var c1, c2, c3 *Container
	acquire(n, "f", func(c *Container, cold bool) { c1 = c })
	acquire(n, "f", func(c *Container, cold bool) { c2 = c })
	acquire(n, "f", func(c *Container, cold bool) { c3 = c })
	env.Run()
	if c1 == nil || c2 == nil || c3 == nil {
		t.Fatal("not all containers acquired")
	}
	// Stagger the releases so each container has a distinct idle age:
	// c1 idles from 1s (expiry 11s), c2 from 2s (12s), c3 from 3s (13s).
	env.Schedule(1*time.Second, func() { n.Release(c1) })
	env.Schedule(2*time.Second, func() { n.Release(c2) })
	env.Schedule(3*time.Second, func() { n.Release(c3) })
	var reused *Container
	env.Schedule(4*time.Second, func() {
		acquire(n, "f", func(c *Container, cold bool) {
			if cold {
				t.Error("reuse was cold despite 3 warm containers")
			}
			reused = c
			n.Release(c) // re-arms c3's expiry at 14s
		})
	})
	env.RunUntil(sim.Time(5 * time.Second))
	if reused != c3 {
		t.Fatalf("warm reuse picked %v, want the newest release c3=%v", reused, c3)
	}
	// c1 was left aging: it must be the first to evict, at its original
	// 11s expiry. Then c2 at 12s, and c3 last at 14s (release re-armed it).
	checkpoints := []struct {
		at   sim.Time
		want int
	}{
		{sim.Time(10*time.Second + 500*time.Millisecond), 3},
		{sim.Time(11*time.Second + 500*time.Millisecond), 2},
		{sim.Time(12*time.Second + 500*time.Millisecond), 1},
		{sim.Time(13*time.Second + 500*time.Millisecond), 1},
		{sim.Time(14*time.Second + 500*time.Millisecond), 0},
	}
	for _, cp := range checkpoints {
		env.RunUntil(cp.at)
		if got := n.Containers(); got != cp.want {
			t.Fatalf("at %v containers = %d, want %d (oldest-idle must evict first)",
				cp.at, got, cp.want)
		}
	}
	if n.Stats().Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", n.Stats().Evictions)
	}
	if n.memUsed != 0 {
		t.Fatalf("memUsed = %d after full drain", n.memUsed)
	}
}

// TestReclaimAdmissionPressure drives sustained Acquire pressure against a
// node that lent half its DRAM to FaaStore: admission must never
// over-commit (memUsed + reclaimed <= DRAM at every instant), queued
// waiters must be served as releases free slots, and returning the
// reclaimed memory must unblock the remaining waiters — no capacity is
// permanently stranded.
func TestReclaimAdmissionPressure(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.PerFnLimit = 100 // memory is the binding constraint
	n := NewNode(env, "w1", cfg)
	if err := n.Reclaim(512 << 20); err != nil { // capacity drops 4 -> 2
		t.Fatalf("Reclaim: %v", err)
	}
	checkBudget := func() {
		if n.memUsed+n.reclaimed > cfg.DRAM {
			t.Fatalf("over-commit at %v: memUsed %d + reclaimed %d > DRAM %d",
				env.Now(), n.memUsed, n.reclaimed, cfg.DRAM)
		}
	}
	var held []*Container
	acquired := 0
	for i := 0; i < 6; i++ {
		acquire(n, "f", func(c *Container, cold bool) {
			acquired++
			held = append(held, c)
			checkBudget()
		})
	}
	env.Run()
	checkBudget()
	if acquired != 2 {
		t.Fatalf("acquired = %d under reclaimed memory, want 2", acquired)
	}
	if n.QueuedAcquires() != 4 {
		t.Fatalf("queued = %d, want 4", n.QueuedAcquires())
	}
	// Releases must hand capacity to the queue, not strand it.
	n.Release(held[0])
	n.Release(held[1])
	held = held[:0]
	env.Run()
	checkBudget()
	if acquired != 4 {
		t.Fatalf("after releases acquired = %d, want 4 (capacity stranded)", acquired)
	}
	// Returning the lent memory must wake the pump for the last waiters.
	if err := n.Reclaim(-(512 << 20)); err != nil {
		t.Fatalf("return reclaim: %v", err)
	}
	env.Run()
	checkBudget()
	if acquired != 6 {
		t.Fatalf("after memory return acquired = %d, want 6 (waiters stranded)", acquired)
	}
	// Drain: every slot frees cleanly, nothing leaks.
	for _, c := range held {
		n.Release(c)
	}
	env.Run()
	if heldContainers(n) != 0 || n.QueuedAcquires() != 0 {
		t.Fatalf("busy = %d queued = %d after drain", heldContainers(n), n.QueuedAcquires())
	}
	if n.memUsed != 0 {
		t.Fatalf("memUsed = %d after keep-alive drain", n.memUsed)
	}
}

// TestReclaimSustainedChurn interleaves Reclaim adjustments with a long
// acquire/release churn and checks the DRAM budget is respected at every
// acquisition and that every request is eventually served.
func TestReclaimSustainedChurn(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.PerFnLimit = 100
	cfg.KeepAlive = 500 * time.Millisecond // churn evictions into the mix
	n := NewNode(env, "w1", cfg)
	if err := n.Reclaim(256 << 20); err != nil { // capacity 3
		t.Fatalf("Reclaim: %v", err)
	}
	served := 0
	const want = 24
	for i := 0; i < want; i++ {
		i := i
		env.Schedule(time.Duration(i)*50*time.Millisecond, func() {
			acquire(n, "f", func(c *Container, cold bool) {
				if n.memUsed+n.reclaimed > cfg.DRAM {
					t.Errorf("over-commit: memUsed %d + reclaimed %d > DRAM %d",
						n.memUsed, n.reclaimed, cfg.DRAM)
				}
				served++
				env.Schedule(120*time.Millisecond, func() { n.Release(c) })
			})
		})
	}
	// Mid-churn the store hands back half its loan, then takes it again.
	env.Schedule(300*time.Millisecond, func() {
		if err := n.Reclaim(-(128 << 20)); err != nil {
			t.Errorf("mid-churn return: %v", err)
		}
	})
	env.Schedule(900*time.Millisecond, func() {
		if err := n.Reclaim(128 << 20); err != nil {
			t.Errorf("mid-churn re-reclaim: %v", err)
		}
	})
	env.Run()
	if served != want {
		t.Fatalf("served = %d, want %d (requests stranded)", served, want)
	}
	if heldContainers(n) != 0 || n.QueuedAcquires() != 0 {
		t.Fatalf("busy = %d queued = %d after churn", heldContainers(n), n.QueuedAcquires())
	}
	if n.memUsed != 0 {
		t.Fatalf("memUsed = %d after evictions", n.memUsed)
	}
}
