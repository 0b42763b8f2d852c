// Package sim provides a deterministic discrete-event simulation kernel.
//
// All FaaSFlow substrates (network fabric, container pool, storage, workflow
// engines) run on top of a single Env: a virtual clock plus an event queue.
// Events scheduled for the same instant fire in scheduling order, so a run
// with the same inputs always produces the same trace.
//
// Events come in two kinds. Env.At and Env.Schedule queue fire-and-forget
// callbacks: the kernel owns their Event, never hands it out, and recycles
// it once the callback has run. A caller that must cancel or re-key an
// event owns one instead: Env.NewEvent makes it, Env.Reschedule arms and
// re-keys it, and Event.Cancel removes it from the queue. Owned events are
// never recycled, so no caller can hold a pointer to a recycled event.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute instant of virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration converts a virtual instant to the elapsed time.Duration since
// the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the instant as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Event is a scheduled callback. The zero value is meaningless; callers
// hold only the events they own, made with Env.NewEvent.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	env   *Env
	index int  // heap index, -1 when not queued
	owned bool // made by NewEvent: the kernel never recycles it
}

// Cancel prevents the event from firing and removes it from the queue.
// Canceling an already-fired or already-canceled event is a no-op.
func (ev *Event) Cancel() {
	if ev.index >= 0 {
		ev.env.queue.remove(ev.index)
	}
}

// Queued reports whether the event is waiting in the queue: armed, and
// neither fired nor canceled since.
func (ev *Event) Queued() bool { return ev.index >= 0 }

// before is the queue order: by instant, then by scheduling sequence. The
// order is total, so firing order does not depend on the heap's shape.
func (ev *Event) before(o *Event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a binary min-heap of the live events. Each event tracks its
// own index, so a canceled event leaves the heap at once instead of lying
// in it until it reaches the top.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event {
	ev := (*q)[0]
	q.remove(0)
	return ev
}

// remove takes the event at index i out of the heap.
func (q *eventQueue) remove(i int) {
	h := *q
	last := len(h) - 1
	ev := h[i]
	h[i] = h[last]
	h[i].index = i
	h[last] = nil
	*q = h[:last]
	ev.index = -1
	if i < last {
		q.fix(i)
	}
}

// fix restores heap order after the key of the event at index i changed.
func (q *eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at index i toward the leaves and reports whether it
// moved.
func (q eventQueue) down(i0 int) bool {
	n := len(q)
	ev := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}

// Env is a discrete-event simulation environment. It is not safe for
// concurrent use; the whole simulation is single-threaded by design so that
// every run is reproducible.
type Env struct {
	now     Time
	queue   eventQueue
	free    []*Event // fired kernel-owned events, reused by At
	nextSeq uint64
	fired   uint64
	running bool
}

// NewEnv returns an environment with the clock at zero and an empty queue.
func NewEnv() *Env { return &Env{} }

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Pending reports how many live events are queued. Canceled events leave
// the queue when they are canceled, so they are never counted.
func (e *Env) Pending() int { return len(e.queue) }

// Fired reports how many events have executed so far.
func (e *Env) Fired() uint64 { return e.fired }

// After reports the instant delay from now. A negative delay is treated as
// zero, so the instant is always a valid argument to At or Reschedule.
func (e *Env) After(delay time.Duration) Time {
	return e.now + Time(max(delay, 0))
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero. The kernel owns the event; a caller that may cancel it uses
// NewEvent instead.
func (e *Env) Schedule(delay time.Duration, fn func()) {
	e.At(e.After(delay), fn)
}

// At queues fn to run at absolute virtual instant t. Scheduling in the past
// panics: it would silently reorder causality. The kernel owns the event
// and recycles it after fn returns.
func (e *Env) At(t Time, fn func()) {
	e.checkAt(t)
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{env: e}
	}
	ev.at, ev.seq, ev.fn = t, e.nextSeq, fn
	e.nextSeq++
	e.queue.push(ev)
}

// NewEvent makes an unqueued event owned by the caller. It takes no
// scheduling sequence; Reschedule arms it, Cancel disarms it, and it may be
// re-armed any number of times, whether it fired or was canceled.
func (e *Env) NewEvent(fn func()) *Event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return &Event{fn: fn, env: e, index: -1, owned: true}
}

// Reschedule moves the owned event ev to fire at absolute instant t,
// whether it is still queued, already fired, or canceled. It is equivalent
// to canceling ev and scheduling its callback anew — ev takes a fresh
// scheduling sequence, so it fires after every event already queued for t
// — but it reuses the event instead of allocating one. Rescheduling into
// the past panics.
func (e *Env) Reschedule(ev *Event, t Time) {
	e.checkAt(t)
	if ev.env != e {
		panic("sim: rescheduling an event from another environment")
	}
	ev.at = t
	ev.seq = e.nextSeq
	e.nextSeq++
	if ev.index >= 0 {
		e.queue.fix(ev.index)
	} else {
		e.queue.push(ev)
	}
}

func (e *Env) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
}

// Step fires the next event. It reports false when the queue is empty.
func (e *Env) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.fired++
	ev.fn()
	if !ev.owned {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	return true
}

// Run fires events until the queue is empty.
func (e *Env) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline (if the simulation hasn't already passed it).
func (e *Env) RunUntil(deadline Time) {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// peek returns the timestamp of the next event.
func (e *Env) peek() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}
