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
// through the same seeded random sequences of Schedule, At, Cancel,
// Reschedule, Step and RunUntil, and requires the same firing order and
// the same Now, Fired, NextAt and Pending after every operation.
func TestKernelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkKernelAgainstRef(t, seed, 400) })
	}
}

func checkKernelAgainstRef(t *testing.T, seed uint64, ops int) {
	rng := NewRand(seed)
	env := NewEnv()
	ref := &refKernel{}
	var handles []*Event
	var got, want []int
	fire := func(id int) func() { return func() { got = append(got, id) } }
	for op := 0; op < ops; op++ {
		// Small delays make same-instant ties common.
		delay := Time(rng.Intn(8)) * Time(time.Millisecond)
		var what string
		switch k := rng.Intn(10); {
		case k < 3:
			what = "Schedule"
			d := time.Duration(delay) - time.Millisecond // sometimes negative
			id := ref.schedule(env.Now() + Time(max(d, 0)))
			handles = append(handles, env.Schedule(d, fire(id)))
		case k < 4:
			what = "At"
			id := ref.schedule(env.Now() + delay)
			handles = append(handles, env.At(env.Now()+delay, fire(id)))
		case k < 6 && len(handles) > 0:
			what = "Cancel"
			id := rng.Intn(len(handles))
			handles[id].Cancel()
			ref.events[id].queued = false
		case k < 7 && len(handles) > 0:
			what = "Reschedule"
			id := rng.Intn(len(handles))
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
		if env.NextAt() != ref.nextAt() || env.Pending() != ref.pending() {
			t.Fatalf("op %d (%s): NextAt=%v Pending=%d, want NextAt=%v Pending=%d",
				op, what, env.NextAt(), env.Pending(), ref.nextAt(), ref.pending())
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
	first := env.Schedule(time.Millisecond, func() { got = append(got, 1) })
	env.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	env.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	env.Step()
	first.Cancel() // already fired
	if env.Pending() != 2 {
		t.Fatalf("Pending = %d after canceling a fired event, want 2", env.Pending())
	}
	second := env.Schedule(time.Millisecond, func() { got = append(got, 4) })
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
	ev := env.Schedule(time.Millisecond, func() { fired = env.Now() })
	ev.Cancel()
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", env.Pending())
	}
	env.Reschedule(ev, Time(5*time.Millisecond))
	if ev.Canceled() || env.Pending() != 1 || ev.At() != Time(5*time.Millisecond) {
		t.Fatalf("after Reschedule: Canceled=%v Pending=%d At=%v", ev.Canceled(), env.Pending(), ev.At())
	}
	env.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("rescheduled event fired at %v, want 5ms", fired)
	}
}

func TestRescheduleTakesFreshSequence(t *testing.T) {
	env := NewEnv()
	var got []int
	a := env.Schedule(time.Millisecond, func() { got = append(got, 1) })
	env.Schedule(time.Millisecond, func() { got = append(got, 2) })
	// Same instant: a re-keyed event queues behind everything already
	// scheduled for it, exactly as Cancel plus a new Schedule would.
	env.Reschedule(a, a.At())
	env.Run()
	if fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("fired %v, want [2 1]", got)
	}
}

func TestRescheduleInPastPanics(t *testing.T) {
	env := NewEnv()
	ev := env.Schedule(5*time.Millisecond, func() {})
	env.RunUntil(Time(10 * time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when rescheduling before Now")
		}
	}()
	env.Reschedule(ev, Time(time.Millisecond))
}
