package cluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// heldContainers counts live containers currently held by callers (live
// minus idle-warm). Drained workflows must leave zero.
func heldContainers(n *Node) int {
	held := n.containers
	for _, p := range n.pools {
		held -= len(p.warm)
	}
	return held
}

// tenantQueued counts one tenant's waiting acquisitions across all
// function pools.
func tenantQueued(n *Node, tenant string) int {
	total := 0
	for _, p := range n.pools {
		total += p.q.tenantLen(tenant)
	}
	return total
}

// acquire requests a container with no overload controls and hands ready
// the outcome; a refused request (node down, queue full) arrives as a nil
// container.
func acquire(n *Node, fn string, ready func(c *Container, cold bool)) {
	n.AcquireOpts(fn, AcquireOptions{}, func(c *Container, cold bool, _ error) { ready(c, cold) })
}

func smallConfig() Config {
	return Config{
		Cores:        2,
		DRAM:         1 << 30, // 1 GB
		ContainerMem: 256 << 20,
		ColdStart:    100 * time.Millisecond,
		KeepAlive:    10 * time.Second,
		PerFnLimit:   3,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Cores: 0, DRAM: 1, ContainerMem: 1, PerFnLimit: 1},
		{Cores: 1, DRAM: 0, ContainerMem: 1, PerFnLimit: 1},
		{Cores: 1, DRAM: 1, ContainerMem: 0, PerFnLimit: 1},
		{Cores: 1, DRAM: 1, ContainerMem: 2, PerFnLimit: 1},
		{Cores: 1, DRAM: 2, ContainerMem: 1, PerFnLimit: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestColdStartThenWarmReuse(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	var first, second *Container
	var firstCold, secondCold bool
	var firstAt, secondAt sim.Time
	acquire(n, "f", func(c *Container, cold bool) {
		first, firstCold, firstAt = c, cold, env.Now()
		n.Release(c)
		acquire(n, "f", func(c2 *Container, cold2 bool) {
			second, secondCold, secondAt = c2, cold2, env.Now()
		})
	})
	env.Run()
	if !firstCold {
		t.Fatal("first acquire was not cold")
	}
	if firstAt != sim.Time(100*time.Millisecond) {
		t.Fatalf("cold start at %v, want 100ms", firstAt)
	}
	if secondCold {
		t.Fatal("second acquire was cold despite warm container")
	}
	if first != second {
		t.Fatal("warm reuse returned a different container")
	}
	if secondAt != firstAt {
		t.Fatalf("warm reuse at %v, want %v (same tick)", secondAt, firstAt)
	}
	st := n.Stats()
	if st.ColdStarts != 1 || st.WarmReuses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerFunctionScaleLimitQueues(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // limit 3 per function
	acquired := 0
	var held []*Container
	for i := 0; i < 5; i++ {
		acquire(n, "f", func(c *Container, cold bool) {
			acquired++
			held = append(held, c)
		})
	}
	env.Run()
	if acquired != 3 {
		t.Fatalf("acquired = %d, want 3 (scale limit)", acquired)
	}
	if n.Stats().QueuedWaits != 2 {
		t.Fatalf("QueuedWaits = %d, want 2", n.Stats().QueuedWaits)
	}
	// Releasing hands containers to the queue.
	n.Release(held[0])
	n.Release(held[1])
	env.Run()
	if acquired != 5 {
		t.Fatalf("after releases acquired = %d, want 5", acquired)
	}
}

func TestNodeMemoryLimitsContainers(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.PerFnLimit = 100 // memory is the binding constraint: 1GB/256MB = 4
	n := NewNode(env, "w1", cfg)
	acquired := 0
	for i := 0; i < 6; i++ {
		fn := string(rune('a' + i)) // distinct functions
		acquire(n, fn, func(c *Container, cold bool) { acquired++ })
	}
	env.Run()
	if acquired != 4 {
		t.Fatalf("acquired = %d, want 4 (DRAM limit)", acquired)
	}
	if free := n.cfg.DRAM - n.memUsed - n.reclaimed; free >= n.cfg.ContainerMem {
		t.Fatalf("%d bytes free, room for another container", free)
	}
}

func TestKeepAliveEviction(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	acquire(n, "f", func(c *Container, cold bool) { n.Release(c) })
	env.Run()
	if n.Containers() != 0 {
		t.Fatalf("containers = %d after keep-alive, want 0", n.Containers())
	}
	if n.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", n.Stats().Evictions)
	}
	if n.memUsed != 0 {
		t.Fatalf("memUsed = %d after eviction", n.memUsed)
	}
}

func TestReacquireBeforeExpiryCancelsEviction(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	acquire(n, "f", func(c *Container, cold bool) {
		n.Release(c)
		// Re-acquire at 5s, hold past the original 10s expiry.
		env.Schedule(5*time.Second, func() {
			acquire(n, "f", func(c2 *Container, cold2 bool) {
				env.Schedule(20*time.Second, func() { n.Release(c2) })
			})
		})
	})
	env.RunUntil(sim.Time(12 * time.Second))
	if n.Containers() != 1 {
		t.Fatalf("container evicted while busy: %d", n.Containers())
	}
	env.Run()
	if n.Containers() != 0 {
		t.Fatal("container never expired after final release")
	}
}

func TestDestroyWarmContainer(t *testing.T) {
	// A node failure destroys a warm container: nothing is left behind and
	// its canceled keep-alive expiry must not fire on freed state.
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	acquire(n, "f", func(c *Container, cold bool) { n.Release(c) })
	env.RunUntil(sim.Time(time.Second))
	if n.WarmContainers("f") != 1 {
		t.Fatalf("warm = %d, want 1", n.WarmContainers("f"))
	}
	n.Fail()
	if n.Containers() != 0 || n.WarmContainers("f") != 0 {
		t.Fatal("destroy left container behind")
	}
	env.Run()
	if n.Stats().Evictions != 0 {
		t.Fatal("destroyed container's expiry fired")
	}
}

func TestExecSingleTask(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	var doneAt sim.Time
	n.Exec(1.5, func() { doneAt = env.Now() })
	env.Run()
	if math.Abs(doneAt.Seconds()-1.5) > 0.001 {
		t.Fatalf("exec finished at %v, want 1.5s", doneAt.Seconds())
	}
	busy := n.Stats().CPUBusy.Seconds()
	if math.Abs(busy-1.5) > 0.001 {
		t.Fatalf("CPUBusy = %v, want 1.5s", busy)
	}
}

func TestExecProcessorSharing(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // 2 cores
	var finishes []float64
	for i := 0; i < 4; i++ {
		n.Exec(1.0, func() { finishes = append(finishes, env.Now().Seconds()) })
	}
	env.Run()
	// 4 tasks on 2 cores at rate 0.5: all finish at ~2s.
	if len(finishes) != 4 {
		t.Fatalf("finishes = %v", finishes)
	}
	for _, f := range finishes {
		if math.Abs(f-2.0) > 0.01 {
			t.Fatalf("finish at %v, want ~2s", f)
		}
	}
	if got := n.Stats().CPUBusy.Seconds(); math.Abs(got-4.0) > 0.01 {
		t.Fatalf("CPUBusy = %v, want 4 core-seconds", got)
	}
}

func TestExecNoContentionUnderCoreCount(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // 2 cores
	var finishes []float64
	n.Exec(1.0, func() { finishes = append(finishes, env.Now().Seconds()) })
	n.Exec(2.0, func() { finishes = append(finishes, env.Now().Seconds()) })
	env.Run()
	if math.Abs(finishes[0]-1.0) > 0.001 || math.Abs(finishes[1]-2.0) > 0.001 {
		t.Fatalf("finishes = %v, want [1, 2]", finishes)
	}
}

func TestExecLateArrivalSlowsEveryone(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.Cores = 1
	n := NewNode(env, "w1", cfg)
	var first, second float64
	n.Exec(2.0, func() { first = env.Now().Seconds() })
	env.Schedule(time.Second, func() {
		n.Exec(1.0, func() { second = env.Now().Seconds() })
	})
	env.Run()
	// t=0..1: task1 alone (1s done, 1s left). t=1: both share the core at
	// 0.5. task1 needs 2 more wall-seconds (done t=3); task2 needs 1 CPU-s:
	// at 0.5 until t=3 => 1.0 done exactly at t=3.
	if math.Abs(first-3.0) > 0.01 {
		t.Fatalf("first = %v, want ~3s", first)
	}
	if math.Abs(second-3.0) > 0.01 {
		t.Fatalf("second = %v, want ~3s", second)
	}
}

func TestExecZeroDuration(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	done := false
	n.Exec(0, func() { done = true })
	env.Run()
	if !done {
		t.Fatal("zero-duration exec never completed")
	}
}

func TestReclaim(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // 1 GB
	if err := n.Reclaim(512 << 20); err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if n.reclaimed != 512<<20 {
		t.Fatalf("Reclaimed = %d", n.reclaimed)
	}
	// Capacity shrinks: (1GB - 512MB)/256MB = 2.
	if room := (n.cfg.DRAM - n.memUsed - n.reclaimed) / n.cfg.ContainerMem; room != 2 {
		t.Fatalf("room for %d containers, want 2", room)
	}
	if err := n.Reclaim(600 << 20); err == nil {
		t.Fatal("over-reclaim accepted")
	}
	if err := n.Reclaim(-(512 << 20)); err != nil {
		t.Fatalf("return reclaim: %v", err)
	}
	if err := n.Reclaim(-1); err == nil {
		t.Fatal("returning more than reclaimed accepted")
	}
}

func TestReclaimBlocksContainerCreation(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	cfgMem := smallConfig().ContainerMem
	if err := n.Reclaim(n.cfg.DRAM - cfgMem + 1); err != nil {
		t.Fatal(err)
	}
	acquired := 0
	acquire(n, "f", func(c *Container, cold bool) { acquired++ })
	env.Run()
	if acquired != 0 {
		t.Fatal("container created despite reclaimed memory")
	}
}

func TestScaleOfTracksPeak(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	var held []*Container
	for i := 0; i < 3; i++ {
		acquire(n, "f", func(c *Container, cold bool) { held = append(held, c) })
	}
	env.Run()
	cur, peak := n.ScaleOf("f")
	if cur != 3 || peak != 3 {
		t.Fatalf("ScaleOf = (%d, %d), want (3, 3)", cur, peak)
	}
	for _, c := range held {
		n.Release(c)
	}
	env.Run() // keep-alive expires all
	cur, peak = n.ScaleOf("f")
	if cur != 0 || peak != 3 {
		t.Fatalf("after expiry ScaleOf = (%d, %d), want (0, 3)", cur, peak)
	}
}

func TestReleaseWrongNodePanics(t *testing.T) {
	env := sim.NewEnv()
	n1 := NewNode(env, "w1", smallConfig())
	n2 := NewNode(env, "w2", smallConfig())
	var c *Container
	acquire(n1, "f", func(cc *Container, cold bool) { c = cc })
	env.Run()
	defer func() {
		if recover() == nil {
			t.Error("cross-node release did not panic")
		}
	}()
	n2.Release(c)
}

// Property: total CPU-busy time equals the sum of submitted work, for any
// batch of tasks (work conservation of the processor-sharing model).
func TestCPUWorkConservationProperty(t *testing.T) {
	f := func(worksRaw []uint16, coresRaw uint8) bool {
		if len(worksRaw) == 0 || len(worksRaw) > 12 {
			return true
		}
		cfg := smallConfig()
		cfg.Cores = int(coresRaw%4) + 1
		env := sim.NewEnv()
		n := NewNode(env, "w1", cfg)
		var total float64
		for _, w := range worksRaw {
			work := float64(w%5000)/1000 + 0.001
			total += work
			n.Exec(work, nil)
		}
		env.Run()
		busy := n.Stats().CPUBusy.Seconds()
		return math.Abs(busy-total) < 0.01*total+0.001 && len(n.running) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: container accounting — containers never exceed per-function
// limit or DRAM, and memory in use is containers * ContainerMem.
func TestContainerAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		env := sim.NewEnv()
		cfg := smallConfig()
		n := NewNode(env, "w1", cfg)
		fns := []string{"f1", "f2", "f3"}
		var live []*Container
		ok := true
		for i := 0; i < 60; i++ {
			if rng.Float64() < 0.6 {
				fn := fns[rng.Intn(len(fns))]
				acquire(n, fn, func(c *Container, cold bool) { live = append(live, c) })
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				c := live[i]
				live = append(live[:i], live[i+1:]...)
				n.Release(c)
			}
			env.RunUntil(env.Now() + sim.Time(200*time.Millisecond))
			if int64(n.Containers())*cfg.ContainerMem != n.memUsed {
				ok = false
			}
			if n.memUsed > cfg.DRAM {
				ok = false
			}
			for _, fn := range fns {
				if cur, _ := n.ScaleOf(fn); cur > cfg.PerFnLimit {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAcquireReleaseWarm(b *testing.B) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acquire(n, "f", func(c *Container, cold bool) { n.Release(c) })
		env.RunUntil(env.Now() + sim.Time(time.Millisecond))
	}
}

func BenchmarkExecContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		n := NewNode(env, "w1", DefaultConfig())
		for j := 0; j < 50; j++ {
			n.Exec(0.01, nil)
		}
		env.Run()
	}
}

// warm asks for count containers of fn at once and releases each as it
// arrives, the way the engine's DAG-lookahead pre-warm fills a pool
// ahead of a step; it reports how many were granted by the end of the
// window.
func warm(env *sim.Env, n *Node, fn string, count int, window sim.Time) int {
	granted := 0
	for i := 0; i < count; i++ {
		acquire(n, fn, func(c *Container, cold bool) {
			granted++
			n.Release(c)
		})
	}
	env.RunUntil(window)
	return granted
}

func TestPrewarm(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // limit 3/fn
	warm(env, n, "f", 3, sim.Time(time.Second))
	if n.WarmContainers("f") != 3 {
		t.Fatalf("warm = %d after prewarm", n.WarmContainers("f"))
	}
	// The next acquisition must be a warm reuse, not a cold start.
	cold := true
	acquire(n, "f", func(c *Container, isCold bool) {
		cold = isCold
		n.Release(c)
	})
	env.RunUntil(sim.Time(2 * time.Second))
	if cold {
		t.Fatal("acquire after prewarm was cold")
	}
}

func TestPrewarmRespectsMemory(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.PerFnLimit = 100 // DRAM is the constraint: 1GB/256MB = 4
	n := NewNode(env, "w1", cfg)
	warm(env, n, "f", 10, sim.Time(time.Second))
	if got := n.Containers(); got != 4 {
		t.Fatalf("prewarm created %d containers, want 4 (DRAM limit)", got)
	}
}
