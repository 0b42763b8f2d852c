package sim

import (
	"fmt"
	"testing"
	"time"
)

// refKernel is the reference model the event queue must agree with: every
// event ever scheduled, searched linearly for the live one with the
// smallest (at, seq).
type refKernel struct {
	now     Time
	nextSeq uint64
	fired   uint64
	events  []refEvent // indexed by event id
}

type refEvent struct {
	at     Time
	seq    uint64
	queued bool
}

func (r *refKernel) schedule(t Time) int {
	r.events = append(r.events, refEvent{at: t, seq: r.nextSeq, queued: true})
	r.nextSeq++
	return len(r.events) - 1
}

func (r *refKernel) reschedule(id int, t Time) {
	r.events[id] = refEvent{at: t, seq: r.nextSeq, queued: true}
	r.nextSeq++
}

// next returns the id of the earliest live event, or -1.
func (r *refKernel) next() int {
	best := -1
	for id, ev := range r.events {
		if !ev.queued {
			continue
		}
		if best < 0 || ev.at < r.events[best].at ||
			(ev.at == r.events[best].at && ev.seq < r.events[best].seq) {
			best = id
		}
	}
	return best
}

// step fires the earliest live event and returns its id, or -1.
func (r *refKernel) step() int {
	id := r.next()
	if id >= 0 {
		r.events[id].queued = false
		r.now = r.events[id].at
		r.fired++
	}
	return id
}

func (r *refKernel) pending() int {
	n := 0
	for _, ev := range r.events {
		if ev.queued {
			n++
		}
	}
	return n
}

func (r *refKernel) nextAt() Time {
	if id := r.next(); id >= 0 {
		return r.events[id].at
	}
	return MaxTime
}

// TestKernelMatchesReference drives the kernel and the reference model
// through the same seeded random sequences of Schedule, At, NewEvent,
// Cancel, Reschedule, Step and RunUntil, and requires the same firing order
// and the same Now, Fired, next instant and Pending after every operation.
// Kernel-owned events are recycled as they fire, so the sequences also mix
// reused events with owned ones.
func TestKernelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkKernelAgainstRef(t, seed, 400) })
	}
}

func checkKernelAgainstRef(t *testing.T, seed uint64, ops int) {
	rng := NewRand(seed)
	env := NewEnv()
	ref := &refKernel{}
	var owned []int             // reference ids of owned events
	handles := map[int]*Event{} // reference id -> owned event
	var got, want []int
	fire := func(id int) func() { return func() { got = append(got, id) } }
	for op := 0; op < ops; op++ {
		// Small delays make same-instant ties common.
		delay := Time(rng.Intn(8)) * Time(time.Millisecond)
		var what string
		switch k := rng.Intn(10); {
		case k < 2:
			what = "Schedule"
			d := time.Duration(delay) - time.Millisecond // sometimes negative
			id := ref.schedule(env.Now() + Time(max(d, 0)))
			env.Schedule(d, fire(id))
		case k < 3:
			what = "At"
			id := ref.schedule(env.Now() + delay)
			env.At(env.Now()+delay, fire(id))
		case k < 4:
			what = "NewEvent"
			ref.events = append(ref.events, refEvent{}) // no sequence until armed
			id := len(ref.events) - 1
			handles[id] = env.NewEvent(fire(id))
			owned = append(owned, id)
			env.Reschedule(handles[id], env.Now()+delay)
			ref.reschedule(id, env.Now()+delay)
		case k < 6 && len(owned) > 0:
			what = "Cancel"
			id := owned[rng.Intn(len(owned))]
			handles[id].Cancel()
			ref.events[id].queued = false
		case k < 7 && len(owned) > 0:
			what = "Reschedule"
			id := owned[rng.Intn(len(owned))]
			env.Reschedule(handles[id], env.Now()+delay)
			ref.reschedule(id, env.Now()+delay)
		case k < 9:
			what = "Step"
			stepped := env.Step()
			id := ref.step()
			if stepped != (id >= 0) {
				t.Fatalf("op %d Step = %v, reference has next %d", op, stepped, id)
			}
			if id >= 0 {
				want = append(want, id)
			}
		default:
			what = "RunUntil"
			deadline := env.Now() + 2*delay
			env.RunUntil(deadline)
			for ref.nextAt() <= deadline {
				want = append(want, ref.step())
			}
			ref.now = max(ref.now, deadline)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d (%s): fired %v, want %v", op, what, got, want)
		}
		if env.Now() != ref.now || env.Fired() != ref.fired {
			t.Fatalf("op %d (%s): Now=%v Fired=%d, want Now=%v Fired=%d",
				op, what, env.Now(), env.Fired(), ref.now, ref.fired)
		}
		if nextAt(env) != ref.nextAt() || env.Pending() != ref.pending() {
			t.Fatalf("op %d (%s): next=%v Pending=%d, want next=%v Pending=%d",
				op, what, nextAt(env), env.Pending(), ref.nextAt(), ref.pending())
		}
	}
	env.Run()
	for id := ref.step(); id >= 0; id = ref.step() {
		want = append(want, id)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || env.Now() != ref.now {
		t.Fatalf("drain: fired %v at %v, want %v at %v", got, env.Now(), want, ref.now)
	}
}

func TestCancelFiredOrCanceledIsNoop(t *testing.T) {
	env := NewEnv()
	var got []int
	first := env.NewEvent(func() { got = append(got, 1) })
	env.Reschedule(first, Time(time.Millisecond))
	env.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	env.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	env.Step()
	first.Cancel() // already fired
	if env.Pending() != 2 {
		t.Fatalf("Pending = %d after canceling a fired event, want 2", env.Pending())
	}
	second := env.NewEvent(func() { got = append(got, 4) })
	env.Reschedule(second, env.Now()+Time(time.Millisecond))
	second.Cancel()
	second.Cancel() // already canceled
	if env.Pending() != 2 {
		t.Fatalf("Pending = %d after canceling twice, want 2", env.Pending())
	}
	env.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
}

func TestRescheduleCanceledRequeues(t *testing.T) {
	env := NewEnv()
	fired := Time(-1)
	ev := env.NewEvent(func() { fired = env.Now() })
	env.Reschedule(ev, Time(time.Millisecond))
	ev.Cancel()
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", env.Pending())
	}
	env.Reschedule(ev, Time(5*time.Millisecond))
	if !ev.Queued() || env.Pending() != 1 || ev.at != Time(5*time.Millisecond) {
		t.Fatalf("after Reschedule: Queued=%v Pending=%d At=%v", ev.Queued(), env.Pending(), ev.at)
	}
	env.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("rescheduled event fired at %v, want 5ms", fired)
	}
}

func TestRescheduleTakesFreshSequence(t *testing.T) {
	env := NewEnv()
	var got []int
	a := env.NewEvent(func() { got = append(got, 1) })
	env.Reschedule(a, Time(time.Millisecond))
	env.Schedule(time.Millisecond, func() { got = append(got, 2) })
	// Same instant: a re-keyed event queues behind everything already
	// scheduled for it, exactly as Cancel plus a new Schedule would.
	env.Reschedule(a, a.at)
	env.Run()
	if fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("fired %v, want [2 1]", got)
	}
}

func TestRescheduleInPastPanics(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent(func() {})
	env.Reschedule(ev, Time(5*time.Millisecond))
	env.RunUntil(Time(10 * time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when rescheduling before Now")
		}
	}()
	env.Reschedule(ev, Time(time.Millisecond))
}

// TestKernelEventsAllocationFree: once the free list holds enough fired
// events, a fire-and-forget At plus the Step that fires it allocates
// nothing.
func TestKernelEventsAllocationFree(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	for i := 0; i < 64; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.At(env.Now()+Time(64*time.Microsecond), fn)
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step made %v allocations, want 0", allocs)
	}
}

// TestOwnedEventRearmAndCancelAfterFire: an owned event can be canceled
// after it fired (a no-op) and re-armed after it fired, and the kernel
// never puts it on the free list, so a later At cannot reuse it.
func TestOwnedEventRearmAndCancelAfterFire(t *testing.T) {
	env := NewEnv()
	fires := 0
	ev := env.NewEvent(func() { fires++ })
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after NewEvent, want 0", env.Pending())
	}
	env.Reschedule(ev, Time(time.Millisecond))
	env.Run()
	for _, f := range env.free {
		if f == ev {
			t.Fatal("fired owned event was recycled")
		}
	}
	ev.Cancel() // already fired
	if fires != 1 || env.Pending() != 0 {
		t.Fatalf("fires=%d Pending=%d after canceling a fired event, want 1 and 0", fires, env.Pending())
	}
	env.Schedule(time.Millisecond, func() {}) // must not reuse ev
	env.Reschedule(ev, env.Now()+Time(2*time.Millisecond))
	if env.Pending() != 2 {
		t.Fatalf("Pending = %d after re-arming, want 2", env.Pending())
	}
	env.Run()
	if fires != 2 || env.Now() != Time(3*time.Millisecond) {
		t.Fatalf("fires=%d Now=%v, want 2 at 3ms", fires, env.Now())
	}
	for _, f := range env.free {
		if f == ev {
			t.Fatal("re-armed owned event was recycled")
		}
	}
}

// TestRecycledEventDropsCallback: a fired kernel-owned event sits on the
// free list without its callback, so it keeps nothing the callback
// captured alive.
func TestRecycledEventDropsCallback(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Millisecond, func() {})
	env.Schedule(2*time.Millisecond, func() {})
	env.Run()
	if len(env.free) != 2 {
		t.Fatalf("free list holds %d events, want 2", len(env.free))
	}
	for _, ev := range env.free {
		if ev.fn != nil || ev.index != -1 {
			t.Fatalf("recycled event keeps fn=%v index=%d", ev.fn != nil, ev.index)
		}
	}
}
