package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// wfqNode builds a one-container node so every acquisition after the first
// queues, exposing the weighted-fair service order.
func wfqNode(env *sim.Env, depth int) *Node {
	cfg := tightConfig()
	cfg.PerFnLimit = 1
	cfg.MaxQueueDepth = depth
	return NewNode(env, "w1", cfg)
}

// holdContainer acquires the single container and returns it.
func holdContainer(t *testing.T, env *sim.Env, n *Node) *Container {
	t.Helper()
	var held *Container
	acquire(n, "f", func(c *Container, cold bool) { held = c })
	env.Run()
	if held == nil {
		t.Fatal("holder did not acquire")
	}
	return held
}

// queueTenant enqueues one tenant-labelled acquisition that records its
// service order in got and immediately releases the container.
func queueTenant(n *Node, tenant, name string, got *[]string) {
	n.AcquireOpts("f", AcquireOptions{Tenant: tenant}, func(c *Container, cold bool, err error) {
		if err != nil {
			return
		}
		*got = append(*got, name)
		n.Release(c)
	})
}

func TestWFQEqualWeightsInterleaveFIFOWithinTenant(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	held := holdContainer(t, env, n)

	var order []string
	queueTenant(n, "a", "A1", &order)
	queueTenant(n, "a", "A2", &order)
	queueTenant(n, "b", "B1", &order)
	queueTenant(n, "b", "B2", &order)
	env.Run()
	if len(order) != 0 {
		t.Fatalf("waiters served while the container was held: %v", order)
	}
	n.Release(held)
	env.Run()
	// Equal weights round-robin across tenants; within each tenant strict
	// arrival order. B1 arrived after A2 but belongs to the less-backlogged
	// tenant, so it overtakes A2 — that is the fairness, not a FIFO bug.
	want := []string{"A1", "B1", "A2", "B2"}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestWFQWeightedInterleaveRatio(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	n.SetTenantWeights(map[string]float64{"a": 2, "b": 1})
	held := holdContainer(t, env, n)

	var order []string
	queueTenant(n, "a", "A1", &order)
	queueTenant(n, "a", "A2", &order)
	queueTenant(n, "a", "A3", &order)
	queueTenant(n, "a", "A4", &order)
	queueTenant(n, "b", "B1", &order)
	queueTenant(n, "b", "B2", &order)
	n.Release(held)
	env.Run()
	// Weight 2 earns two grants per one of weight 1 (start-time fair
	// queueing with finish tags 0.5 apart vs 1 apart).
	want := []string{"A1", "A2", "B1", "A3", "A4", "B2"}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestWFQSingleTenantDegeneratesToFIFO(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	held := holdContainer(t, env, n)
	var order []string
	for _, name := range []string{"1", "2", "3", "4"} {
		queueTenant(n, "only", name, &order)
	}
	n.Release(held)
	env.Run()
	for i, name := range []string{"1", "2", "3", "4"} {
		if i >= len(order) || order[i] != name {
			t.Fatalf("single-tenant order %v, want exact FIFO", order)
		}
	}
}

func TestPerTenantQueueDepthBound(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 1)
	held := holdContainer(t, env, n)

	errs := map[string]error{}
	queue := func(tenant, name string) {
		n.AcquireOpts("f", AcquireOptions{Tenant: tenant}, func(c *Container, cold bool, err error) {
			errs[name] = err
			if c != nil {
				n.Release(c)
			}
		})
	}
	queue("a", "A1")
	queue("a", "A2") // over a's depth bound of 1
	queue("b", "B1") // b's own queue is empty: must not be shed by a's backlog
	env.Run()
	if !errors.Is(errs["A2"], ErrQueueFull) {
		t.Fatalf("A2 err = %v, want ErrQueueFull", errs["A2"])
	}
	if _, done := errs["B1"]; done {
		t.Fatalf("B1 resolved early with err = %v", errs["B1"])
	}
	if got := tenantQueued(n, "a"); got != 1 {
		t.Fatalf("tenant a queued = %d, want 1", got)
	}
	n.Release(held)
	env.Run()
	if errs["A1"] != nil || errs["B1"] != nil {
		t.Fatalf("queued waiters failed: A1=%v B1=%v", errs["A1"], errs["B1"])
	}
	var a, b TenantNodeStats
	for _, st := range n.TenantStats() {
		switch st.Tenant {
		case "a":
			a = st
		case "b":
			b = st
		}
	}
	if a.Shed != 1 || a.QueuedWaits != 1 || a.Grants != 1 {
		t.Fatalf("tenant a stats = %+v, want 1 shed / 1 queued / 1 grant", a)
	}
	if b.Shed != 0 || b.Grants != 1 {
		t.Fatalf("tenant b stats = %+v, want 0 shed / 1 grant", b)
	}
}

func TestTenantDeadlineWhileQueued(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	held := holdContainer(t, env, n)

	var aErr, bErr error
	bDone := false
	n.AcquireOpts("f", AcquireOptions{Tenant: "a", Deadline: env.Now() + sim.Time(time.Second)},
		func(c *Container, cold bool, err error) { aErr = err })
	n.AcquireOpts("f", AcquireOptions{Tenant: "b"},
		func(c *Container, cold bool, err error) {
			bErr, bDone = err, true
			if c != nil {
				n.Release(c)
			}
		})
	env.Run() // the deadline timer fires with the container still held
	if !errors.Is(aErr, ErrDeadline) {
		t.Fatalf("expired waiter err = %v, want ErrDeadline", aErr)
	}
	if bDone {
		t.Fatal("tenant b's waiter resolved alongside a's deadline")
	}
	n.Release(held)
	env.Run()
	if !bDone || bErr != nil {
		t.Fatalf("tenant b waiter after release: done=%v err=%v", bDone, bErr)
	}
	for _, st := range n.TenantStats() {
		if st.Tenant == "a" && st.DeadlineAborts != 1 {
			t.Fatalf("tenant a stats = %+v, want 1 deadline abort", st)
		}
	}
}

func TestTenantFenceRejectsQueuedWaiterAtGrant(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	held := holdContainer(t, env, n)

	stale := false
	fence := func() error {
		if stale {
			return errors.New("epoch superseded")
		}
		return nil
	}
	var aErr, bErr error
	n.AcquireOpts("f", AcquireOptions{Tenant: "a", Fence: fence},
		func(c *Container, cold bool, err error) { aErr = err })
	n.AcquireOpts("f", AcquireOptions{Tenant: "b"},
		func(c *Container, cold bool, err error) {
			bErr = err
			if c != nil {
				n.Release(c)
			}
		})
	env.Run()
	stale = true // ownership moved while a's request was queued
	n.Release(held)
	env.Run()
	if !errors.Is(aErr, ErrFenced) {
		t.Fatalf("fenced waiter err = %v, want ErrFenced", aErr)
	}
	if bErr != nil {
		t.Fatalf("tenant b waiter err = %v, want grant", bErr)
	}
	for _, st := range n.TenantStats() {
		if st.Tenant == "a" && st.FencedAcquires != 1 {
			t.Fatalf("tenant a stats = %+v, want 1 fenced acquire", st)
		}
	}
}

func TestFailAbortsTenantWaitersInArrivalOrder(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 0)
	n.SetTenantWeights(map[string]float64{"a": 1, "b": 4})
	holdContainer(t, env, n)

	var order []string
	abort := func(tenant, name string) {
		n.AcquireOpts("f", AcquireOptions{Tenant: tenant}, func(c *Container, cold bool, err error) {
			if errors.Is(err, ErrNodeDown) {
				order = append(order, name)
			}
		})
	}
	// Weighted service order would be B-heavy; the abort path must keep
	// plain arrival order regardless of weights.
	abort("a", "A1")
	abort("b", "B1")
	abort("a", "A2")
	abort("b", "B2")
	env.Run()
	n.Fail()
	env.Run()
	want := []string{"A1", "B1", "A2", "B2"}
	if len(order) != len(want) {
		t.Fatalf("aborted %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("abort order %v, want arrival order %v", order, want)
		}
	}
}

func TestTenantQueueEventsOnBus(t *testing.T) {
	env := sim.NewEnv()
	n := wfqNode(env, 1)
	bus := obs.NewBus()
	var ops []string
	bus.Subscribe(func(ev obs.Event) {
		if e, ok := ev.(obs.TenantQueueEvent); ok {
			ops = append(ops, e.Tenant+":"+e.Op)
		}
	})
	n.SetBus(bus)
	held := holdContainer(t, env, n)

	var sink []string
	queueTenant(n, "a", "A1", &sink)
	queueTenant(n, "a", "A2", &sink) // shed by the depth bound
	env.Run()
	n.Release(held)
	env.Run()
	want := []string{"a:enqueue", "a:shed", "a:grant"}
	if len(ops) != len(want) {
		t.Fatalf("events %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("events %v, want %v", ops, want)
		}
	}
}
