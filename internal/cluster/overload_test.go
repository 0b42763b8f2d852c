package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestMaxQueueDepthValidate(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxQueueDepth = -1
	if cfg.Validate() == nil {
		t.Fatal("negative MaxQueueDepth validated")
	}
	cfg.MaxQueueDepth = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MaxQueueDepth = 4 rejected: %v", err)
	}
}

func TestBoundedQueueSheds(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig() // limit 3 per function
	cfg.MaxQueueDepth = 2
	n := NewNode(env, "w1", cfg)
	var acquired, shed, queued int
	for i := 0; i < 7; i++ {
		n.AcquireOpts("f", AcquireOptions{}, func(c *Container, cold bool, err error) {
			switch {
			case err == nil:
				acquired++
			case errors.Is(err, ErrQueueFull):
				shed++
			default:
				t.Errorf("unexpected acquire error: %v", err)
			}
		})
		if d := n.QueuedAcquires(); d > queued {
			queued = d
		}
	}
	env.Run()
	// 3 containers start, 2 stand in the bounded queue, 2 are shed.
	if acquired != 3 || shed != 2 {
		t.Fatalf("acquired = %d shed = %d, want 3 / 2", acquired, shed)
	}
	if queued != 2 {
		t.Fatalf("peak queue depth = %d, want MaxQueueDepth = 2", queued)
	}
	if st := n.Stats(); st.Shed != 2 || st.QueuedWaits != 2 {
		t.Fatalf("stats = %+v, want Shed 2 QueuedWaits 2", st)
	}
}

func TestAcquireDeadlineExpiresQueuedWaiter(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig()) // limit 3
	var held []*Container
	for i := 0; i < 3; i++ {
		acquire(n, "f", func(c *Container, cold bool) { held = append(held, c) })
	}
	var deadlined bool
	var deadlinedAt sim.Time
	deadline := sim.Time(2 * time.Second)
	n.AcquireOpts("f", AcquireOptions{Deadline: deadline}, func(c *Container, cold bool, err error) {
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("queued waiter got (%v, %v), want ErrDeadline", c, err)
		}
		deadlined, deadlinedAt = true, env.Now()
	})
	env.Run()
	if !deadlined {
		t.Fatal("deadline never fired")
	}
	if deadlinedAt != deadline {
		t.Fatalf("deadline fired at %v, want %v", deadlinedAt, deadline)
	}
	if n.QueuedAcquires() != 0 {
		t.Fatalf("QueuedAcquires = %d after expiry, want 0", n.QueuedAcquires())
	}
	if st := n.Stats(); st.DeadlineAborts != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1", st.DeadlineAborts)
	}
	// A release after the deadline must not resurrect the waiter: the
	// container goes idle-warm instead of being handed over.
	n.Release(held[0])
	if n.WarmContainers("f") != 1 {
		t.Fatalf("released container not warm (warm=%d)", n.WarmContainers("f"))
	}
}

func TestAcquireDeadlineAlreadyPassed(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	env.Schedule(time.Second, func() {
		n.AcquireOpts("f", AcquireOptions{Deadline: sim.Time(500 * time.Millisecond)},
			func(c *Container, cold bool, err error) {
				if !errors.Is(err, ErrDeadline) {
					t.Errorf("got (%v, %v), want immediate ErrDeadline", c, err)
				}
			})
	})
	env.Run()
	if st := n.Stats(); st.DeadlineAborts != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1", st.DeadlineAborts)
	}
}

func TestAcquireDeadlineServedInTimeCancelsExpiry(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	served := false
	n.AcquireOpts("f", AcquireOptions{Deadline: sim.Time(time.Minute)},
		func(c *Container, cold bool, err error) {
			if err != nil {
				t.Errorf("acquire failed: %v", err)
			}
			served = true
			n.Release(c)
		})
	env.Run()
	if !served {
		t.Fatal("never served")
	}
	if st := n.Stats(); st.DeadlineAborts != 0 {
		t.Fatalf("DeadlineAborts = %d for a served request", st.DeadlineAborts)
	}
}

func TestAcquireOptsNodeDown(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	n.Fail()
	var got error
	n.AcquireOpts("f", AcquireOptions{}, func(c *Container, cold bool, err error) { got = err })
	env.Run()
	if !errors.Is(got, ErrNodeDown) {
		t.Fatalf("acquire on failed node returned %v, want ErrNodeDown", got)
	}
}

func TestFailAbortsDeadlineWaiters(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	var held []*Container
	for i := 0; i < 3; i++ {
		acquire(n, "f", func(c *Container, cold bool) { held = append(held, c) })
	}
	var got error
	n.AcquireOpts("f", AcquireOptions{Deadline: sim.Time(time.Hour)},
		func(c *Container, cold bool, err error) { got = err })
	env.Schedule(time.Second, n.Fail)
	env.Run()
	if !errors.Is(got, ErrNodeDown) {
		t.Fatalf("waiter aborted with %v, want ErrNodeDown", got)
	}
	if n.QueuedAcquires() != 0 {
		t.Fatalf("QueuedAcquires = %d after Fail, want 0", n.QueuedAcquires())
	}
}

func TestShedAndDeadlineEvents(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig()
	cfg.MaxQueueDepth = 2
	n := NewNode(env, "w1", cfg)
	bus := obs.NewBus()
	ops := map[obs.ContainerOp]int{}
	bus.Subscribe(func(ev obs.Event) {
		if e, ok := ev.(obs.ContainerEvent); ok {
			ops[e.Op]++
		}
	})
	n.SetBus(bus)
	cb := func(c *Container, cold bool, err error) {}
	// 3 served, then a deadlined waiter queues, then one more queues
	// (depth 2 = bound), then the last is shed.
	for i := 0; i < 3; i++ {
		n.AcquireOpts("f", AcquireOptions{}, cb)
	}
	n.AcquireOpts("f", AcquireOptions{Deadline: sim.Time(time.Millisecond)}, cb)
	n.AcquireOpts("f", AcquireOptions{}, cb)
	n.AcquireOpts("f", AcquireOptions{}, cb)
	env.Run()
	if ops[obs.ContainerShed] != 1 {
		t.Fatalf("shed events = %d, want 1", ops[obs.ContainerShed])
	}
	if ops[obs.ContainerDeadline] != 1 {
		t.Fatalf("deadline events = %d, want 1", ops[obs.ContainerDeadline])
	}
}

// TestBusyContainersAccessor checks the accessors whose difference is the
// busy count: a held container is live but not warm, and turns warm on
// release.
func TestBusyContainersAccessor(t *testing.T) {
	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	var c1 *Container
	acquire(n, "f", func(c *Container, cold bool) { c1 = c })
	env.Run()
	if n.Containers() != 1 || n.WarmContainers("f") != 0 {
		t.Fatalf("live %d warm %d while held, want 1 and 0", n.Containers(), n.WarmContainers("f"))
	}
	n.Release(c1)
	if n.Containers() != 1 || n.WarmContainers("f") != 1 {
		t.Fatalf("live %d warm %d after release, want 1 and 1", n.Containers(), n.WarmContainers("f"))
	}
}
