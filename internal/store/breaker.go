package store

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements the store circuit breaker: during a remote-store
// brownout (outage, partition, or a saturated storage link) operations
// would otherwise queue unboundedly — every in-flight workflow stalls
// holding its container while its puts sit in the outage queue. The
// breaker watches per-operation timeouts; after Threshold consecutive
// failures it opens and fails fast, so callers learn immediately that the
// backend is gone and can degrade (skip the write, drain the workflow)
// instead of hanging. After Cooldown it half-opens and lets one probe
// through; the probe's outcome closes or re-opens the circuit.

// Breaker failure causes, reported through Hybrid's operation callbacks.
var (
	// ErrBreakerOpen is a fast-fail: the circuit is open, the operation was
	// never issued to the backend.
	ErrBreakerOpen = errors.New("store: circuit breaker open")
	// ErrStoreTimeout is an operation abandoned by the breaker's watchdog;
	// the backend may still complete it eventually, but the caller has
	// moved on.
	ErrStoreTimeout = errors.New("store: operation timed out")
)

// Breaker states, in gauge order (see faasflow_store_breaker_state).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// BreakerConfig tunes the circuit breaker.
type BreakerConfig struct {
	// Timeout is the per-operation watchdog: a remote op not acknowledged
	// within it counts as a failure and fails the caller. Must be > 0.
	Timeout time.Duration
	// Threshold is the consecutive-failure count that opens the circuit
	// (default 3).
	Threshold int
	// Cooldown is how long the circuit stays open before half-opening for
	// a probe (default 5 × Timeout).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * c.Timeout
	}
	return c
}

// Validate reports configuration mistakes.
func (c BreakerConfig) Validate() error {
	if c.Timeout <= 0 {
		return fmt.Errorf("store: breaker Timeout = %v, must be positive", c.Timeout)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("store: breaker Threshold = %d, must be >= 0", c.Threshold)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("store: breaker Cooldown = %v, must be >= 0", c.Cooldown)
	}
	return nil
}

// Breaker is a consecutive-timeout circuit breaker on the simulation
// clock. A nil *Breaker is valid and inert: Admit always allows and Track
// never times out, so Hybrid call sites need no gating.
type Breaker struct {
	env *sim.Env
	cfg BreakerConfig
	bus *obs.Bus

	state       int
	consecFails int
	openedAt    sim.Time
	// probing marks the single half-open probe slot as taken; only the
	// probe operation's own outcome may release it.
	probing bool
	// pendingProbe hands the probe designation from Admit to the next
	// Track call (Hybrid always calls them back to back), so Track knows
	// whether the operation it watches IS the probe. Without this, any
	// stale pre-trip operation settling during half-open would clear the
	// probe slot and let a second concurrent probe through.
	pendingProbe bool
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(env *sim.Env, cfg BreakerConfig) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{env: env, cfg: cfg.withDefaults()}, nil
}

// SetBus attaches (or detaches, with nil) an observability bus; state
// transitions publish BreakerEvents.
func (b *Breaker) SetBus(bus *obs.Bus) {
	if b != nil {
		b.bus = bus
	}
}

func stateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// Admit decides whether an operation may be issued now. Open circuits
// fail fast with ErrBreakerOpen until the cooldown elapses, then admit a
// single half-open probe at a time.
func (b *Breaker) Admit() error {
	if b == nil {
		return nil
	}
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.env.Now() >= b.openedAt+sim.Time(b.cfg.Cooldown) {
			b.transition(breakerHalfOpen)
			b.probing = true
			b.pendingProbe = true
			return nil
		}
		return ErrBreakerOpen
	default: // half-open
		if !b.probing {
			b.probing = true
			b.pendingProbe = true
			return nil
		}
		return ErrBreakerOpen
	}
}

// Track registers one admitted in-flight operation. It returns the settle
// function the operation's completion callback must call; if the watchdog
// fires first, onTimeout runs instead (and the late completion's settle is
// a no-op). Nil-safe: a nil breaker returns an inert settle.
func (b *Breaker) Track(onTimeout func()) func() {
	if b == nil {
		return func() {}
	}
	isProbe := b.pendingProbe
	b.pendingProbe = false
	expired := false
	ev := b.env.NewEvent(func() {
		expired = true
		b.recordFailure(isProbe)
		onTimeout()
	})
	b.env.Reschedule(ev, b.env.After(b.cfg.Timeout))
	return func() {
		if expired {
			return
		}
		ev.Cancel()
		b.recordSuccess(isProbe)
	}
}

func (b *Breaker) recordFailure(isProbe bool) {
	b.consecFails++
	if isProbe {
		// The probe failed: straight back to open, cooldown restarts.
		b.probing = false
		b.transition(breakerOpen)
		return
	}
	switch b.state {
	case breakerClosed:
		if b.consecFails >= b.cfg.Threshold {
			b.transition(breakerOpen)
		}
	case breakerHalfOpen:
		// A stale pre-trip operation timing out while the probe is in
		// flight: evidence from before the trip, not about the probe. The
		// probe slot stays taken; the probe's own outcome decides.
	}
}

func (b *Breaker) recordSuccess(isProbe bool) {
	b.consecFails = 0
	if isProbe {
		b.probing = false
		if b.state != breakerClosed {
			b.transition(breakerClosed)
		}
		return
	}
	if b.state == breakerOpen {
		// A pre-trip operation completed after all: the backend answered,
		// so recover early rather than waiting out the cooldown.
		b.transition(breakerClosed)
	}
	// In half-open, a stale success neither closes the circuit nor frees
	// the probe slot — only the probe's outcome may.
}

func (b *Breaker) transition(state int) {
	b.state = state
	if state == breakerOpen {
		b.openedAt = b.env.Now()
	}
	if b.bus.Active() {
		b.bus.Publish(obs.BreakerEvent{
			Backend:  "remote",
			State:    stateName(state),
			Failures: b.consecFails,
			At:       b.env.Now(),
		})
	}
}
