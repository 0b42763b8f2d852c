package store

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestBreakerConfigValidate(t *testing.T) {
	if _, err := NewBreaker(sim.NewEnv(), BreakerConfig{}); err == nil {
		t.Fatal("zero Timeout accepted")
	}
	if _, err := NewBreaker(sim.NewEnv(), BreakerConfig{Timeout: -time.Second}); err == nil {
		t.Fatal("negative Timeout accepted")
	}
	b, err := NewBreaker(sim.NewEnv(), BreakerConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if b.cfg.Threshold != 3 || b.cfg.Cooldown != 500*time.Millisecond {
		t.Fatalf("defaults = %+v", b.cfg)
	}
}

func TestBreakerNilIsInert(t *testing.T) {
	var b *Breaker
	if err := b.Admit(); err != nil {
		t.Fatalf("nil Admit = %v", err)
	}
	b.Track(func() { t.Fatal("nil breaker timed out") })()
	if state(b) != "closed" {
		t.Fatal("nil breaker not inert")
	}
}

// state reports the breaker's current state name.
func state(b *Breaker) string {
	if b == nil {
		return "closed"
	}
	return stateName(b.state)
}

// transitions records every state the breaker publishes from now on.
func transitions(b *Breaker) *[]string {
	var states []string
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		if e, ok := ev.(obs.BreakerEvent); ok {
			states = append(states, e.State)
		}
	})
	b.SetBus(bus)
	return &states
}

// count reports how often s occurs in states.
func count(states []string, s string) int {
	n := 0
	for _, x := range states {
		if x == s {
			n++
		}
	}
	return n
}

// timeoutOnce lets one tracked op expire on the virtual clock and reports
// whether its timeout callback ran.
func timeoutOnce(env *sim.Env, b *Breaker) bool {
	timedOut := false
	b.Track(func() { timedOut = true })
	env.Run()
	return timedOut
}

func TestBreakerOpensAfterConsecutiveTimeouts(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{Timeout: 10 * time.Millisecond, Threshold: 3})
	states := transitions(b)
	for i := 0; i < 2; i++ {
		if !timeoutOnce(env, b) {
			t.Fatalf("op %d did not time out", i+1)
		}
		if state(b) != "closed" {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
	}
	if !timeoutOnce(env, b) {
		t.Fatal("op 3 did not time out")
	}
	if state(b) != "open" {
		t.Fatalf("state = %q after 3 consecutive timeouts", state(b))
	}
	if err := b.Admit(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Admit while open = %v", err)
	}
	if len(*states) != 1 || (*states)[0] != "open" {
		t.Fatalf("transitions = %v, want one trip", *states)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{Timeout: 10 * time.Millisecond, Threshold: 3})
	timeoutOnce(env, b)
	timeoutOnce(env, b)
	b.Track(func() { t.Fatal("settled op timed out") })() // immediate success
	timeoutOnce(env, b)
	timeoutOnce(env, b)
	if state(b) != "closed" {
		t.Fatal("streak not reset by success")
	}
	timeoutOnce(env, b)
	if state(b) != "open" {
		t.Fatal("did not open after a fresh streak of 3")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{
		Timeout: 10 * time.Millisecond, Threshold: 1, Cooldown: 100 * time.Millisecond,
	})
	timeoutOnce(env, b)
	if state(b) != "open" {
		t.Fatalf("state = %q", state(b))
	}
	// Before the cooldown: still failing fast.
	if err := b.Admit(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Admit inside cooldown = %v", err)
	}
	// After the cooldown the first Admit becomes the probe; a second
	// concurrent request still fails fast.
	env.Schedule(200*time.Millisecond, func() {
		if err := b.Admit(); err != nil {
			t.Fatalf("probe Admit = %v", err)
		}
		if state(b) != "half_open" {
			t.Fatalf("state = %q, want half_open", state(b))
		}
		if err := b.Admit(); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("second Admit during probe = %v", err)
		}
		// The probe succeeds: circuit closes.
		b.Track(func() {})()
		if state(b) != "closed" {
			t.Fatalf("state = %q after successful probe", state(b))
		}
	})
	env.Run()
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{
		Timeout: 10 * time.Millisecond, Threshold: 1, Cooldown: 50 * time.Millisecond,
	})
	states := transitions(b)
	timeoutOnce(env, b)
	env.Schedule(100*time.Millisecond, func() {
		if err := b.Admit(); err != nil {
			t.Fatalf("probe Admit = %v", err)
		}
		b.Track(func() {}) // never settled: the probe times out
	})
	env.Run()
	if state(b) != "open" {
		t.Fatalf("state = %q after failed probe, want open", state(b))
	}
	if trips := count(*states, "open"); trips != 2 {
		t.Fatalf("trips = %d, want 2 (transitions %v)", trips, *states)
	}
}

// brownedOutHybrid builds a Hybrid whose remote store is down and whose
// breaker is armed, in remote-only mode so every op takes the remote path.
func brownedOutHybrid(t *testing.T) (*sim.Env, *Hybrid, *RemoteKV) {
	t.Helper()
	env, _, remote := testRig(t)
	h := NewHybrid(remote, map[string]*MemKV{}, true)
	b, err := NewBreaker(env, BreakerConfig{
		Timeout: 50 * time.Millisecond, Threshold: 2, Cooldown: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetBreaker(b)
	remote.SetAvailable(false)
	return env, h, remote
}

func TestBreakerFailsFastDuringBrownout(t *testing.T) {
	env, h, remote := brownedOutHybrid(t)
	var errs []error
	for i := 0; i < 6; i++ {
		i := i
		env.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			h.Put(workerA, "k", 1000, nil, func(_ Location, err error) {
				errs = append(errs, err)
			})
		})
	}
	env.Run()
	if len(errs) != 6 {
		t.Fatalf("%d of 6 puts completed", len(errs))
	}
	// First two time out (opening the circuit); the rest fail fast and are
	// never issued, so the outage queue stays at the two in-flight ops.
	for i, err := range errs {
		want := ErrStoreTimeout
		if i >= 2 {
			want = ErrBreakerOpen
		}
		if !errors.Is(err, want) {
			t.Fatalf("put %d error = %v, want %v", i, err, want)
		}
	}
	if p := remote.PendingOps(); p != 2 {
		t.Fatalf("outage queue = %d ops, want 2 (fast-fails never issued)", p)
	}
	if state(h.breaker) != "open" {
		t.Fatalf("state = %q", state(h.breaker))
	}
}

func TestBreakerGetFailsFastDuringBrownout(t *testing.T) {
	env, h, _ := brownedOutHybrid(t)
	var errs []error
	for i := 0; i < 4; i++ {
		i := i
		env.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			h.Get(workerA, "k", func(_ int64, ok bool, err error) {
				if ok {
					t.Error("browned-out get reported ok")
				}
				errs = append(errs, err)
			})
		})
	}
	env.Run()
	if len(errs) != 4 {
		t.Fatalf("%d of 4 gets completed", len(errs))
	}
	if !errors.Is(errs[0], ErrStoreTimeout) || !errors.Is(errs[3], ErrBreakerOpen) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestBreakerRecoversAfterBrownout(t *testing.T) {
	env, h, remote := brownedOutHybrid(t)
	// Trip the breaker.
	h.Put(workerA, "a", 1000, nil, nil)
	h.Put(workerA, "b", 1000, nil, nil)
	// Heal the backend mid-cooldown; the queued ops drain.
	env.Schedule(500*time.Millisecond, func() { remote.SetAvailable(true) })
	// After the 1s cooldown, the next op is the half-open probe; it
	// succeeds against the healed backend and closes the circuit.
	var proberErr error
	probed := false
	env.Schedule(1500*time.Millisecond, func() {
		h.Put(workerA, "c", 1000, nil, func(_ Location, err error) {
			probed = true
			proberErr = err
		})
	})
	env.Run()
	if !probed || proberErr != nil {
		t.Fatalf("probe: done=%v err=%v", probed, proberErr)
	}
	if state(h.breaker) != "closed" {
		t.Fatalf("state = %q after recovery", state(h.breaker))
	}
	if !stored(remote, "c") {
		t.Fatal("probe value not stored")
	}
}

func TestBreakerLatePutCompletionRerecordsPlacement(t *testing.T) {
	env, h, remote := brownedOutHybrid(t)
	var first error
	calls := 0
	h.Put(workerA, "k", 1000, nil, func(_ Location, err error) {
		calls++
		first = err
	})
	// While the write is timed out, the placement must not claim the key.
	env.Schedule(60*time.Millisecond, func() {
		if h.placements["k"] != LocNone {
			t.Errorf("placement = %v while write unacknowledged", h.placements["k"])
		}
	})
	env.Schedule(200*time.Millisecond, func() { remote.SetAvailable(true) })
	env.Run()
	if calls != 1 || !errors.Is(first, ErrStoreTimeout) {
		t.Fatalf("calls=%d err=%v", calls, first)
	}
	// The late completion landed: placement re-recorded, value present.
	if h.placements["k"] != LocRemote || !stored(remote, "k") {
		t.Fatalf("late write lost: Where=%v Has=%v", h.placements["k"], stored(remote, "k"))
	}
}

func TestBreakerPublishesTransitions(t *testing.T) {
	env, h, remote := brownedOutHybrid(t)
	bus := obs.NewBus()
	h.breaker.SetBus(bus)
	var states []string
	bus.Subscribe(func(ev obs.Event) {
		if e, ok := ev.(obs.BreakerEvent); ok {
			states = append(states, e.State)
		}
	})
	h.Put(workerA, "a", 1000, nil, nil)
	h.Put(workerA, "b", 1000, nil, nil)
	env.Schedule(500*time.Millisecond, func() { remote.SetAvailable(true) })
	env.Schedule(1500*time.Millisecond, func() { h.Put(workerA, "c", 1000, nil, nil) })
	env.Run()
	want := []string{"open", "half_open", "closed"}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

func TestBreakerLocalPathNotGated(t *testing.T) {
	// Memory-tier operations bypass the breaker entirely: a brownout of the
	// remote database must not block local exchange.
	env, _, remote := testRig(t)
	h := NewHybrid(remote, map[string]*MemKV{workerA: NewMemKV(env, workerA, 1<<20)}, false)
	b, _ := NewBreaker(env, BreakerConfig{Timeout: 50 * time.Millisecond, Threshold: 1})
	h.SetBreaker(b)
	remote.SetAvailable(false)
	// Trip the breaker with one remote op.
	h.Put(workerA, "remote-k", 100, []string{workerB}, nil)
	env.Run()
	if state(b) != "open" {
		t.Fatalf("state = %q", state(b))
	}
	var loc Location
	var putErr error
	h.Put(workerA, "local-k", 100, []string{workerA}, func(l Location, err error) { loc, putErr = l, err })
	env.Run()
	if putErr != nil || loc != LocMemory {
		t.Fatalf("local put with open breaker: loc=%v err=%v", loc, putErr)
	}
	var ok bool
	var getErr error
	h.Get(workerA, "local-k", func(_ int64, o bool, err error) { ok, getErr = o, err })
	env.Run()
	if getErr != nil || !ok {
		t.Fatalf("local get with open breaker: ok=%v err=%v", ok, getErr)
	}
}

// Regression: an operation admitted before the trip that settles
// successfully while the half-open probe is in flight must not free the
// probe slot (letting a second concurrent probe through) or close the
// circuit — only the probe's own outcome may.
func TestBreakerStaleSettleDoesNotFreeProbeSlot(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{
		Timeout: 10 * time.Millisecond, Threshold: 1, Cooldown: 2 * time.Millisecond,
	})
	states := transitions(b)
	// Op B: admitted while closed, times out at t=10ms and trips the breaker.
	b.Track(func() {})
	// Op A: admitted while closed at t=5ms, still in flight when the
	// breaker trips.
	var settleA func()
	env.Schedule(5*time.Millisecond, func() {
		settleA = b.Track(func() { t.Fatal("op A timed out") })
	})
	env.Schedule(13*time.Millisecond, func() {
		if err := b.Admit(); err != nil {
			t.Fatalf("probe Admit = %v", err)
		}
		settleProbe := b.Track(func() { t.Fatal("probe timed out") })
		env.Schedule(time.Millisecond, func() {
			// The stale pre-trip op settles while the probe is in flight.
			settleA()
			if state(b) != "half_open" {
				t.Fatalf("state = %q after stale settle, want half_open", state(b))
			}
			if err := b.Admit(); !errors.Is(err, ErrBreakerOpen) {
				t.Fatalf("Admit after stale settle = %v, want ErrBreakerOpen", err)
			}
		})
		env.Schedule(3*time.Millisecond, func() {
			settleProbe()
			if state(b) != "closed" {
				t.Fatalf("state = %q after probe success, want closed", state(b))
			}
		})
	})
	env.Run()
	// Every probe starts with the open -> half_open transition.
	if count(*states, "open") != 1 || count(*states, "half_open") != 1 {
		t.Fatalf("transitions = %v, want 1 trip / 1 probe", *states)
	}
}

// Regression (timeout flavor): a stale pre-trip op expiring mid-probe is
// evidence from before the trip — it must not re-trip the circuit or free
// the probe slot.
func TestBreakerStaleTimeoutDuringProbeIgnored(t *testing.T) {
	env := sim.NewEnv()
	b, _ := NewBreaker(env, BreakerConfig{
		Timeout: 10 * time.Millisecond, Threshold: 1, Cooldown: 2 * time.Millisecond,
	})
	states := transitions(b)
	b.Track(func() {}) // times out at t=10ms and trips
	// Op A tracked at t=5ms; its watchdog fires at t=15ms, mid-probe.
	env.Schedule(5*time.Millisecond, func() { b.Track(func() {}) })
	env.Schedule(13*time.Millisecond, func() {
		if err := b.Admit(); err != nil {
			t.Fatalf("probe Admit = %v", err)
		}
		settleProbe := b.Track(func() { t.Fatal("probe timed out") })
		env.Schedule(4*time.Millisecond, func() {
			if state(b) != "half_open" {
				t.Fatalf("state = %q after stale timeout, want half_open", state(b))
			}
			if err := b.Admit(); !errors.Is(err, ErrBreakerOpen) {
				t.Fatalf("Admit after stale timeout = %v, want ErrBreakerOpen", err)
			}
			settleProbe()
			if state(b) != "closed" {
				t.Fatalf("state = %q after probe success, want closed", state(b))
			}
		})
	})
	env.Run()
	if trips := count(*states, "open"); trips != 1 {
		t.Fatalf("stale timeout re-tripped: transitions %v", *states)
	}
}
