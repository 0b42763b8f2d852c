// Package admission implements overload admission control for workflow
// starts: a token-bucket rate limiter plus a concurrent-workflow cap, with
// an optional per-tenant weighted layer underneath.
//
// Rationale (docs/OVERLOAD.md): an open-loop arrival stream offered past
// the cluster's saturation point piles unbounded work onto the engines and
// per-function Acquire queues, and every latency metric collapses. The
// controller sits at the front door — the gateway's invoke endpoint and the
// faasflow API — and rejects the excess immediately with a typed error
// carrying a Retry-After hint, so admitted work keeps meeting its deadline
// (graceful degradation: goodput flat-tops instead of collapsing).
//
// The per-tenant layer (docs/TENANCY.md) guards against the noisy-neighbor
// failure mode: one tenant offering load past saturation must not be able
// to drain the shared bucket or occupy every concurrency slot. Each
// configured tenant gets its own token bucket and concurrency cap sized
// from its weight's share of the global limits (or explicit overrides), so
// a misbehaving tenant is clipped to its fair share at the front door while
// well-behaved tenants keep their full allocation.
//
// The buckets run on virtual time, so admission decisions are as
// deterministic as everything else in the simulation: same arrival
// schedule, same decisions, same snapshot bytes.
package admission

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrOverloaded is the sentinel matched by errors.Is for every admission
// rejection. Callers branch on it; *Error carries the details.
var ErrOverloaded = errors.New("admission: overloaded")

// Error is an admission rejection: which limit fired, which tenant the
// request carried, and how long the client should wait before retrying.
type Error struct {
	Reason     string        // "rate" | "concurrency" | "tenant-rate" | "tenant-concurrency"
	Tenant     string        // tenant identity of the rejected request ("" = untenanted)
	RetryAfter time.Duration // suggested client backoff (>= 0)
}

func (e *Error) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("admission: overloaded (%s limit, tenant %q), retry after %v",
			e.Reason, e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("admission: overloaded (%s limit), retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) succeed for every rejection.
func (e *Error) Is(target error) bool { return target == ErrOverloaded }

// TenantConfig is one tenant's slice of the controller. Zero-value fields
// derive from the tenant's weighted share of the global limits.
type TenantConfig struct {
	// Weight is the tenant's relative share of the global limits among all
	// configured tenants. 0 defaults to 1.
	Weight float64
	// RatePerSec overrides the tenant's sustained admission rate. 0 derives
	// Weight/ΣWeights of the global RatePerSec (no tenant rate limit when
	// the global rate limit is off too).
	RatePerSec float64
	// Burst overrides the tenant's bucket capacity. 0 defaults to
	// max(1, tenant rate).
	Burst float64
	// MaxConcurrent overrides the tenant's in-flight cap. 0 derives
	// ceil(Weight/ΣWeights × global MaxConcurrent) (no tenant cap when the
	// global cap is off too).
	MaxConcurrent int
}

// Config fixes the controller's limits. Zero values disable the
// corresponding limit, so Config{} admits everything.
type Config struct {
	// RatePerSec is the sustained workflow-admission rate. 0 disables
	// rate limiting.
	RatePerSec float64
	// Burst is the token bucket capacity — how many back-to-back arrivals
	// are admitted before the sustained rate gates. 0 defaults to
	// max(1, RatePerSec).
	Burst float64
	// MaxConcurrent caps admitted workflows in flight (admitted minus
	// released). 0 disables the cap.
	MaxConcurrent int
	// Tenants layers per-tenant weighted buckets and caps under the global
	// limits. Requests from tenants not in the map (including the empty
	// tenant) pass only the global gates but are still tracked per tenant
	// in TenantStats.
	Tenants map[string]TenantConfig
}

// Validate reports configuration mistakes.
func (c Config) Validate() error {
	switch {
	case c.RatePerSec < 0:
		return fmt.Errorf("admission: RatePerSec = %v, must be >= 0", c.RatePerSec)
	case c.Burst < 0:
		return fmt.Errorf("admission: Burst = %v, must be >= 0", c.Burst)
	case c.MaxConcurrent < 0:
		return fmt.Errorf("admission: MaxConcurrent = %d, must be >= 0", c.MaxConcurrent)
	}
	for name, tc := range c.Tenants {
		switch {
		case tc.Weight < 0:
			return fmt.Errorf("admission: tenant %q Weight = %v, must be >= 0", name, tc.Weight)
		case tc.RatePerSec < 0:
			return fmt.Errorf("admission: tenant %q RatePerSec = %v, must be >= 0", name, tc.RatePerSec)
		case tc.Burst < 0:
			return fmt.Errorf("admission: tenant %q Burst = %v, must be >= 0", name, tc.Burst)
		case tc.MaxConcurrent < 0:
			return fmt.Errorf("admission: tenant %q MaxConcurrent = %d, must be >= 0", name, tc.MaxConcurrent)
		}
	}
	return nil
}

// Stats aggregates the controller's lifetime counters.
type Stats struct {
	Admitted            int64
	RejectedRate        int64
	RejectedConcurrency int64
}

// TenantStats is one tenant's slice of the lifetime counters. Weight and
// the effective limits are echoed so surfaces (gateway /tenants) can render
// the configuration next to the counters.
type TenantStats struct {
	Tenant              string  `json:"tenant"`
	Weight              float64 `json:"weight"`
	RatePerSec          float64 `json:"ratePerSec"`    // effective; 0 = unlimited
	MaxConcurrent       int     `json:"maxConcurrent"` // effective; 0 = unlimited
	Live                int     `json:"live"`
	Admitted            int64   `json:"admitted"`
	Released            int64   `json:"released"`
	RejectedRate        int64   `json:"rejectedRate"`        // tenant bucket rejections
	RejectedConcurrency int64   `json:"rejectedConcurrency"` // tenant cap rejections
	RejectedGlobal      int64   `json:"rejectedGlobal"`      // global-limit rejections attributed to the tenant
}

// tenantState is one tenant's runtime bucket. Unconfigured tenants get a
// limitless state (rate 0, maxConc 0) so per-tenant accounting still works.
type tenantState struct {
	name    string
	weight  float64
	rate    float64 // 0 = no tenant rate limit
	burst   float64
	maxConc int // 0 = no tenant concurrency cap

	tokens float64
	last   sim.Time
	live   int

	admitted   int64
	released   int64
	rejRate    int64
	rejConc    int64
	rejGlobal  int64
	configured bool
}

// refill accrues tenant tokens for elapsed virtual time, capped at burst.
func (t *tenantState) refill(now sim.Time) {
	if now > t.last {
		t.tokens += (now - t.last).Duration().Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.last = now
}

// pendingAdmit records one closure-less Admit so Release can attribute the
// holding-time sample and the release event.
type pendingAdmit struct {
	workflow string
	at       sim.Time
}

// Controller is a deterministic admission controller on the simulation
// clock. A nil *Controller is valid and admits everything, so call sites
// need no gating.
type Controller struct {
	env *sim.Env
	cfg Config
	bus *obs.Bus

	tokens float64
	last   sim.Time
	live   int
	stats  Stats

	tenants map[string]*tenantState

	// pending tracks closure-less Admit calls (FIFO) so plain Release can
	// recover the admit instant for the holding-time estimator.
	pending []pendingAdmit

	// meanHold is a deterministic EWMA of observed workflow holding times
	// (admit → release), feeding concurrencyRetry when rate limiting is off.
	meanHold  time.Duration
	holdCount int64
}

// holdAlpha is the EWMA smoothing factor for holding-time samples.
const holdAlpha = 0.2

// New builds a controller. Every bucket starts full. Tenant shares are
// computed over the configured tenant set: tenant rate defaults to
// Weight/ΣWeights of the global rate, tenant concurrency to the same share
// of the global cap (rounded up so every tenant can run at least one).
func New(env *sim.Env, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Burst == 0 && cfg.RatePerSec > 0 {
		cfg.Burst = cfg.RatePerSec
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	a := &Controller{
		env:     env,
		cfg:     cfg,
		tokens:  cfg.Burst,
		last:    env.Now(),
		tenants: map[string]*tenantState{},
	}
	if len(cfg.Tenants) > 0 {
		names := make([]string, 0, len(cfg.Tenants))
		total := 0.0
		for name, tc := range cfg.Tenants {
			names = append(names, name)
			w := tc.Weight
			if w == 0 {
				w = 1
			}
			total += w
		}
		sort.Strings(names)
		for _, name := range names {
			tc := cfg.Tenants[name]
			w := tc.Weight
			if w == 0 {
				w = 1
			}
			ts := &tenantState{name: name, weight: w, last: env.Now(), configured: true}
			ts.rate = tc.RatePerSec
			if ts.rate == 0 && cfg.RatePerSec > 0 {
				ts.rate = cfg.RatePerSec * w / total
			}
			ts.burst = tc.Burst
			if ts.burst == 0 && ts.rate > 0 {
				ts.burst = ts.rate
				if ts.burst < 1 {
					ts.burst = 1
				}
			}
			ts.maxConc = tc.MaxConcurrent
			if ts.maxConc == 0 && cfg.MaxConcurrent > 0 {
				ts.maxConc = int(math.Ceil(float64(cfg.MaxConcurrent) * w / total))
			}
			ts.tokens = ts.burst
			a.tenants[name] = ts
		}
	}
	return a, nil
}

// SetBus attaches (or detaches, with nil) an observability bus; every
// decision publishes an AdmissionEvent and every release an
// AdmissionReleaseEvent.
func (a *Controller) SetBus(b *obs.Bus) {
	if a != nil {
		a.bus = b
	}
}

// tenantOf returns the tenant's bucket state, creating a limitless tracker
// for tenants outside the configured set so accounting stays per tenant.
func (a *Controller) tenantOf(tenant string) *tenantState {
	ts := a.tenants[tenant]
	if ts == nil {
		ts = &tenantState{name: tenant, weight: 1, last: a.env.Now()}
		a.tenants[tenant] = ts
	}
	return ts
}

// refill accrues global tokens for the virtual time elapsed since the last
// decision, capped at the burst size.
func (a *Controller) refill() {
	now := a.env.Now()
	if now > a.last {
		a.tokens += (now - a.last).Duration().Seconds() * a.cfg.RatePerSec
		if a.tokens > a.cfg.Burst {
			a.tokens = a.cfg.Burst
		}
	}
	a.last = now
}

// admit runs every gate — global concurrency, tenant concurrency, global
// rate, tenant rate — before consuming from either bucket, so a rejection
// at a later gate never burns tokens taken by an earlier one.
func (a *Controller) admit(workflow, tenant string) error {
	ts := a.tenantOf(tenant)
	if a.cfg.MaxConcurrent > 0 && a.live >= a.cfg.MaxConcurrent {
		a.stats.RejectedConcurrency++
		ts.rejGlobal++
		err := &Error{Reason: "concurrency", Tenant: tenant, RetryAfter: a.concurrencyRetry()}
		a.pub(workflow, tenant, false, err.Reason, err.RetryAfter)
		return err
	}
	if ts.maxConc > 0 && ts.live >= ts.maxConc {
		ts.rejConc++
		a.stats.RejectedConcurrency++
		err := &Error{Reason: "tenant-concurrency", Tenant: tenant, RetryAfter: a.concurrencyRetry()}
		a.pub(workflow, tenant, false, err.Reason, err.RetryAfter)
		return err
	}
	if a.cfg.RatePerSec > 0 {
		a.refill()
		if a.tokens < 1 {
			a.stats.RejectedRate++
			ts.rejGlobal++
			err := &Error{Reason: "rate", Tenant: tenant, RetryAfter: tokenRetry(a.tokens, a.cfg.RatePerSec)}
			a.pub(workflow, tenant, false, err.Reason, err.RetryAfter)
			return err
		}
	}
	if ts.rate > 0 {
		ts.refill(a.env.Now())
		if ts.tokens < 1 {
			ts.rejRate++
			a.stats.RejectedRate++
			err := &Error{Reason: "tenant-rate", Tenant: tenant, RetryAfter: tokenRetry(ts.tokens, ts.rate)}
			a.pub(workflow, tenant, false, err.Reason, err.RetryAfter)
			return err
		}
	}
	// Every gate passed: consume from both buckets atomically.
	if a.cfg.RatePerSec > 0 {
		a.tokens--
	}
	if ts.rate > 0 {
		ts.tokens--
	}
	a.live++
	ts.live++
	a.stats.Admitted++
	ts.admitted++
	a.pub(workflow, tenant, true, "ok", 0)
	return nil
}

// tokenRetry suggests a backoff for a rate rejection: the time until the
// bucket accrues the missing fraction of a token.
func tokenRetry(tokens, rate float64) time.Duration {
	retry := time.Duration((1 - tokens) / rate * float64(time.Second))
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	return retry
}

// Admit decides one workflow start for workflow (a label for metrics, not
// an identity), attributed to the empty tenant. On success it consumes a
// token and a concurrency slot — the caller must pair it with Release when
// the workflow finishes. On overload it returns an *Error matching
// ErrOverloaded.
func (a *Controller) Admit(workflow string) error {
	if a == nil {
		return nil
	}
	if err := a.admit(workflow, ""); err != nil {
		return err
	}
	a.pending = append(a.pending, pendingAdmit{workflow: workflow, at: a.env.Now()})
	return nil
}

// AdmitTenant decides one workflow start attributed to tenant. On success
// it returns an idempotent release closure the caller must invoke when the
// workflow finishes; on overload it returns an *Error (matching
// ErrOverloaded) whose Tenant field names the rejected tenant.
func (a *Controller) AdmitTenant(workflow, tenant string) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	if err := a.admit(workflow, tenant); err != nil {
		return nil, err
	}
	at := a.env.Now()
	released := false
	return func() {
		if released {
			return
		}
		released = true
		a.release(workflow, tenant, at)
	}, nil
}

// concurrencyRetry suggests a backoff for concurrency rejections: the
// bucket's token period when rate limiting is on; otherwise the expected
// wait for a slot to free, estimated from the EWMA of observed holding
// times spread across the live workflows. With no completed holds observed
// yet it falls back to a fixed second.
func (a *Controller) concurrencyRetry() time.Duration {
	if a.cfg.RatePerSec > 0 {
		return time.Duration(float64(time.Second) / a.cfg.RatePerSec)
	}
	if a.holdCount > 0 && a.meanHold > 0 {
		div := a.live
		if div < 1 {
			div = 1
		}
		retry := a.meanHold / time.Duration(div)
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		return retry
	}
	return time.Second
}

// release is the shared release core: decrement live counts, fold the
// holding time into the EWMA, and publish the release event.
func (a *Controller) release(workflow, tenant string, admittedAt sim.Time) {
	if a.live <= 0 {
		panic("admission: Release without matching Admit")
	}
	a.live--
	ts := a.tenantOf(tenant)
	if ts.live > 0 {
		ts.live--
	}
	ts.released++
	held := (a.env.Now() - admittedAt).Duration()
	if held >= 0 {
		if a.holdCount == 0 {
			a.meanHold = held
		} else {
			a.meanHold = time.Duration((1-holdAlpha)*float64(a.meanHold) + holdAlpha*float64(held))
		}
		a.holdCount++
	}
	if a.bus.Active() {
		a.bus.Publish(obs.AdmissionReleaseEvent{
			Workflow:   workflow,
			Tenant:     tenant,
			Live:       a.live,
			TenantLive: ts.live,
			Held:       held,
			At:         a.env.Now(),
		})
	}
}

// Release returns the concurrency slot taken by the oldest outstanding
// Admit (AdmitTenant pairs with its own closure instead).
func (a *Controller) Release() {
	if a == nil {
		return
	}
	var p pendingAdmit
	if len(a.pending) > 0 {
		p = a.pending[0]
		a.pending = a.pending[:copy(a.pending, a.pending[1:])]
	} else {
		p.at = a.env.Now() // zero-length hold: no admit instant recorded
	}
	a.release(p.workflow, "", p.at)
}

// Live reports admitted workflows currently in flight.
func (a *Controller) Live() int {
	if a == nil {
		return 0
	}
	return a.live
}

// Stats returns a snapshot of lifetime counters.
func (a *Controller) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.stats
}

// TenantStats returns per-tenant counters, sorted by tenant name. Both
// configured tenants (even if never seen) and ad-hoc tenants that sent
// traffic appear.
func (a *Controller) TenantStats() []TenantStats {
	if a == nil {
		return nil
	}
	names := make([]string, 0, len(a.tenants))
	for name := range a.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantStats, 0, len(names))
	for _, name := range names {
		ts := a.tenants[name]
		out = append(out, TenantStats{
			Tenant:              ts.name,
			Weight:              ts.weight,
			RatePerSec:          ts.rate,
			MaxConcurrent:       ts.maxConc,
			Live:                ts.live,
			Admitted:            ts.admitted,
			Released:            ts.released,
			RejectedRate:        ts.rejRate,
			RejectedConcurrency: ts.rejConc,
			RejectedGlobal:      ts.rejGlobal,
		})
	}
	return out
}

func (a *Controller) pub(workflow, tenant string, admitted bool, reason string, retry time.Duration) {
	if !a.bus.Active() {
		return
	}
	tenantLive := 0
	if ts := a.tenants[tenant]; ts != nil {
		tenantLive = ts.live
	}
	a.bus.Publish(obs.AdmissionEvent{
		Workflow:   workflow,
		Tenant:     tenant,
		Admitted:   admitted,
		Reason:     reason,
		Live:       a.live,
		TenantLive: tenantLive,
		RetryAfter: retry,
		At:         a.env.Now(),
	})
}
