package harness

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Timeout is the paper's execution deadline: invocations that do not finish
// within a minute are recorded as 60 s (§5.1).
const Timeout = 60 * time.Second

// Target starts one invocation: an engine deployment's Invoke, or a
// federation's shard router. A non-nil error means it did not start; the
// driver retries a *federation.HandoffError once its window closes, and
// the wait counts toward the invocation's latency.
type Target func(opts engine.InvokeOptions, done func(engine.Result)) error

// Invoke starts one invocation on the deployment's engine; it never fails.
func (d *Deployment) Invoke(opts engine.InvokeOptions, done func(engine.Result)) error {
	d.Engine.InvokeOpts(opts, done)
	return nil
}

// Arrivals is a client's arrival process. The zero value is a closed loop:
// each invocation starts when the previous one completes (§2.3).
type Arrivals struct {
	// Interval > 0 is a fixed-rate open loop: arrival i starts i·Interval
	// after the batch begins, regardless of completions (§5.4).
	Interval time.Duration
	// PoissonMean > 0 is a Poisson open loop: exponential gaps with this
	// mean in seconds, drawn from Seed.
	PoissonMean float64
	Seed        uint64
}

// PerMinute is a fixed-rate open loop of perMinute arrivals a minute.
func PerMinute(perMinute float64) Arrivals {
	return Arrivals{Interval: time.Duration(60 / perMinute * float64(time.Second))}
}

// Poisson is a Poisson open loop averaging perMinute arrivals a minute.
func Poisson(perMinute float64, seed uint64) Arrivals {
	return Arrivals{PoissonMean: 60 / perMinute, Seed: seed}
}

// Client is one source of traffic: an invoke target, an arrival process,
// a warm-up count and N recorded invocations.
type Client struct {
	Target   Target
	Arrivals Arrivals
	// Warmup invocations run first, unrecorded. A closed loop chains them
	// ahead of its first arrival. An open loop starts them together and
	// waits for them; without a federation that wait drains the clock,
	// which fires every keep-alive expiry, so its first arrivals start
	// cold anyway.
	Warmup int
	N      int
	// Args, Tenant and Deadline (relative; 0 = none) go with every
	// invocation, warm-ups included.
	Args     map[string]any
	Tenant   string
	Deadline time.Duration
	// Admit, when set, gates each recorded arrival: a rejected one is
	// counted and never invoked; an admitted one calls release when done.
	Admit func() (release func(), err error)
}

// Tally is one client's outcome.
type Tally struct {
	// Rec holds each completion's latency from first submission. An
	// admission-gated client records goodput only (not failed).
	Rec                *metrics.Recorder
	Admitted, Rejected int
	// Failed counts failed completions, deadline misses (Deadlined)
	// included.
	Completed, Failed, Deadlined int
	// Lost counts arrivals unfinished when Drive returned.
	Lost int
	// Err is the first submission error other than a handoff rejection;
	// its arrival counts as finished.
	Err error

	finished int
}

type driver struct {
	env     *sim.Env
	stepped bool
	clients []Client
	tallies []Tally
	pending int // invocations started or scheduled, not yet finished
}

// Drive runs the clients together on the testbed's clock and returns one
// tally per client, in order, once every client's batch has completed.
//
// Without a federation the driver then drains the event queue, as every
// batch here always has: the drain fires every keep-alive expiry and moves
// the clock about ten minutes on, and a later batch depends on both. A
// federation's lease timers reschedule forever, so on a testbed that hosts
// one the driver steps the clock in 100 ms quanta until the batch
// completes, up to a deadline of one Timeout per invocation plus a minute
// past the last arrival, and leaves the rest of the queue in place.
func (tb *Testbed) Drive(clients ...Client) []Tally {
	r := &driver{env: tb.Env, stepped: tb.federated, clients: clients, tallies: make([]Tally, len(clients))}
	warm := 0
	for i, c := range clients {
		if c.Arrivals.Interval > 0 || c.Arrivals.PoissonMean > 0 {
			for w := 0; w < c.Warmup; w++ {
				r.start(i, false, nil)
			}
			warm += c.Warmup
		}
	}
	if warm > 0 {
		r.wait(0, warm)
	}
	var span time.Duration
	total := 0
	for i, c := range clients {
		r.tallies[i].Rec = &metrics.Recorder{}
		r.pending += c.N
		total += c.N
		arrive := func(delay time.Duration) {
			span = max(span, delay)
			r.env.Schedule(delay, func() { r.start(i, true, nil) })
		}
		switch {
		case c.Arrivals.PoissonMean > 0:
			rng := sim.NewRand(c.Arrivals.Seed ^ 0x9e3779b97f4a7c15)
			at := 0.0
			for k := 0; k < c.N; k++ {
				at += rng.ExpFloat64() * c.Arrivals.PoissonMean
				arrive(time.Duration(at * float64(time.Second)))
			}
		case c.Arrivals.Interval > 0:
			for k := 0; k < c.N; k++ {
				arrive(time.Duration(k) * c.Arrivals.Interval)
			}
		default:
			total += c.Warmup
			r.closed(i)
		}
	}
	r.wait(span, total)
	for i := range r.tallies {
		r.tallies[i].Lost = clients[i].N - r.tallies[i].finished
	}
	return r.tallies
}

// closed chains client i's warm-ups, then its arrivals, each starting
// when the previous one finishes.
func (r *driver) closed(i int) {
	warm, left := r.clients[i].Warmup, r.clients[i].N
	var next func()
	next = func() {
		switch {
		case warm > 0:
			warm--
			r.start(i, false, next)
		case left > 0:
			left--
			r.start(i, true, next)
		}
	}
	next()
}

// call is one invocation of client i: a warm-up, or a recorded arrival.
type call struct {
	r        *driver
	i        int
	recorded bool
	then     func() // run once the call finishes, if set
	release  func() // the admission slot to give back, if any
	start    sim.Time
	opts     engine.InvokeOptions
}

// start submits one invocation of client i, through admission when it is
// a recorded arrival (already counted pending), and calls then (if set)
// once it finishes.
func (r *driver) start(i int, recorded bool, then func()) {
	c, t := &r.clients[i], &r.tallies[i]
	k := &call{r: r, i: i, recorded: recorded, then: then, start: r.env.Now()}
	if !recorded {
		r.pending++
	}
	if recorded && c.Admit != nil {
		release, err := c.Admit()
		if err != nil {
			t.Rejected++
			k.finish()
			return
		}
		t.Admitted++
		k.release = release
	}
	k.opts = engine.InvokeOptions{Args: c.Args, Tenant: c.Tenant}
	if c.Deadline > 0 {
		k.opts.Deadline = k.start + sim.Time(c.Deadline)
	}
	k.submit()
}

func (k *call) submit() {
	err := k.r.clients[k.i].Target(k.opts, k.done)
	if err == nil {
		return
	}
	var he *federation.HandoffError
	if errors.As(err, &he) {
		k.r.env.Schedule(he.RetryAfter, k.submit)
		return
	}
	if t := &k.r.tallies[k.i]; t.Err == nil {
		t.Err = err
	}
	k.finish()
}

func (k *call) done(res engine.Result) {
	if t := &k.r.tallies[k.i]; k.recorded {
		t.Completed++
		if res.Failed {
			t.Failed++
		}
		if res.DeadlineExceeded {
			t.Deadlined++
		}
		if k.r.clients[k.i].Admit == nil || !res.Failed {
			t.Rec.Add((k.r.env.Now() - k.start).Duration())
		}
	}
	k.finish()
}

func (k *call) finish() {
	if k.release != nil {
		k.release()
	}
	if k.recorded {
		k.r.tallies[k.i].finished++
	}
	k.r.pending--
	if k.then != nil {
		k.then()
	}
}

// wait advances the clock until nothing is pending (see Drive); span is
// the last arrival's offset and n the invocations the deadline allows.
func (r *driver) wait(span time.Duration, n int) {
	if !r.stepped {
		r.env.Run()
		return
	}
	deadline := r.env.Now() + sim.Time(span+time.Duration(n)*Timeout+time.Minute)
	for r.pending > 0 && r.env.Now() < deadline {
		r.env.RunUntil(r.env.Now() + sim.Time(100*time.Millisecond))
	}
}
