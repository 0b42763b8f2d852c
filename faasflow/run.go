package faasflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// This file is the public run surface: one RunSpec describes a batch of
// invocations under any of the paper's traffic shapes, App.Run sends it,
// and Cluster.Run sends several batches together (co-location, §5.5).

// InvokeOptions tunes every invocation of a batch.
type InvokeOptions struct {
	// Args are the invocation input arguments; switch steps evaluate their
	// branch conditions against them.
	Args map[string]any
	// Deadline bounds each invocation end to end (relative to its start;
	// 0 = none). Queued and in-flight steps cancel once it passes.
	Deadline time.Duration
	// Tenant attributes every invocation to a tenant: container acquisition
	// queues weighted-fair against other tenants, and journal records and
	// invocation events carry the label. "" = untenanted.
	Tenant string
}

// RunSpec describes one batch of invocations. The zero value with N set is
// a closed loop with no warm-up.
type RunSpec struct {
	// N is the number of recorded invocations.
	N int
	// PerMinute > 0 sends an open loop: arrivals at this rate regardless of
	// completions (§5.4). Without Admit, open-loop latencies clamp at the
	// paper's 60 s deadline. 0 sends a closed loop: each invocation starts
	// when the previous one completes (§5.2).
	PerMinute float64
	// Poisson draws exponential inter-arrival gaps from Seed instead of a
	// fixed interval (open loop only). Deterministic for a given seed.
	Poisson bool
	Seed    uint64
	// Invoke goes with every invocation, warm-ups included.
	Invoke InvokeOptions
	// Admit sends each recorded arrival through the cluster's admission
	// controller (Invoke.Tenant selects the tenant's slice). A rejected
	// arrival is counted, not retried; Stats then covers goodput only and
	// Stats.Admission holds the per-outcome counts.
	Admit bool
	// Warmup invocations run before the recorded ones, outside admission
	// and the statistics. A closed loop chains them ahead of its first
	// recorded invocation, so its containers are warm. An open loop starts
	// them together and waits for them; on a cluster that hosts no
	// federation that wait drains the clock, which also fires every
	// container's 600 s keep-alive expiry, so an open loop's first arrivals
	// start cold whatever Warmup is.
	Warmup int
}

// Stats summarizes a batch of invocations.
type Stats struct {
	Count    int
	Mean     time.Duration
	P50      time.Duration
	P99      time.Duration
	Max      time.Duration
	Timeouts float64 // fraction at or past the 60 s deadline
	// Admission is the per-outcome accounting of an admission-gated run
	// (RunSpec.Admit); nil otherwise.
	Admission *AdmissionOutcome
}

// AdmissionOutcome accounts for every arrival of an admission-gated run.
type AdmissionOutcome struct {
	Offered   int // arrivals scheduled
	Admitted  int // past the controller
	Rejected  int // turned away with ErrOverloaded
	Goodput   int // admitted, completed, neither failed nor deadlined
	Deadlined int // admitted but ran out of deadline
	Failed    int // admitted but failed inside the engine (queue shed)
}

func statsOf(rec *metrics.Recorder) Stats {
	return Stats{
		Count:    rec.Count(),
		Mean:     rec.Mean(),
		P50:      rec.Percentile(0.5),
		P99:      rec.P99(),
		Max:      rec.Max(),
		Timeouts: rec.TimeoutRate(harness.Timeout),
	}
}

// Batch pairs an app with the traffic to send it.
type Batch struct {
	App  *App
	Spec RunSpec
}

// Run sends one batch of invocations to the app and returns its
// statistics. It is Cluster.Run with one batch.
func (a *App) Run(spec RunSpec) (Stats, error) {
	sts, err := a.cluster.Run(Batch{a, spec})
	if len(sts) == 0 {
		return Stats{}, err
	}
	return sts[0], err
}

// Run drives every batch together on the cluster's clock — the paper's
// co-location methodology (§5.5) when there is more than one — and
// returns one Stats per batch, in order. Federated apps route through
// their shard router, retrying across handoff windows.
//
// On a cluster that hosts no federation the run then drains the
// simulation clock, which fires every container's keep-alive expiry, so
// the next batch starts after them. On a cluster that hosts one, the
// federation's lease timers never let the clock drain: the run steps it
// until its own batch completes and leaves the remaining events queued
// (see docs/FEDERATION.md).
//
// An invalid spec or a foreign app is an error before anything runs.
// Otherwise the statistics come back with any error: an invocation that
// could not start, or invocations still unfinished when the run returned.
func (c *Cluster) Run(batches ...Batch) ([]Stats, error) {
	if len(batches) == 0 {
		return nil, nil // nothing to drive; the clock stays where it is
	}
	clients := make([]harness.Client, len(batches))
	for i, b := range batches {
		cl, err := c.client(b)
		if err != nil {
			return nil, err
		}
		clients[i] = cl
	}
	tallies := c.tb.Drive(clients...)
	out := make([]Stats, len(batches))
	var errs []error
	for i, t := range tallies {
		spec := batches[i].Spec
		if spec.PerMinute > 0 && !spec.Admit {
			t.Rec.Clamp(harness.Timeout)
		}
		out[i] = statsOf(t.Rec)
		if spec.Admit {
			out[i].Admission = &AdmissionOutcome{
				Offered:   spec.N,
				Admitted:  t.Admitted,
				Rejected:  t.Rejected,
				Goodput:   t.Completed - t.Failed,
				Deadlined: t.Deadlined,
				Failed:    t.Failed - t.Deadlined,
			}
		}
		name := batches[i].App.dep.Bench.Name
		if t.Err != nil {
			errs = append(errs, fmt.Errorf("faasflow: run of %s: %w", name, t.Err))
		}
		if t.Lost > 0 {
			errs = append(errs, fmt.Errorf("faasflow: run of %s stalled: %d of %d invocations never finished", name, t.Lost, spec.N))
		}
	}
	return out, errors.Join(errs...)
}

// client validates one batch and maps it onto a harness client.
func (c *Cluster) client(b Batch) (harness.Client, error) {
	a, s := b.App, b.Spec
	switch {
	case a == nil || a.cluster != c:
		return harness.Client{}, fmt.Errorf("faasflow: Run needs apps deployed on this cluster")
	case s.N < 0 || s.Warmup < 0:
		return harness.Client{}, fmt.Errorf("faasflow: RunSpec needs N >= 0 and Warmup >= 0, got %d and %d", s.N, s.Warmup)
	case s.PerMinute < 0:
		return harness.Client{}, fmt.Errorf("faasflow: RunSpec.PerMinute must not be negative, got %v", s.PerMinute)
	case s.Poisson && s.PerMinute == 0:
		return harness.Client{}, fmt.Errorf("faasflow: RunSpec.Poisson needs PerMinute > 0")
	}
	cl := harness.Client{
		Target:   a.invoke,
		Warmup:   s.Warmup,
		N:        s.N,
		Args:     s.Invoke.Args,
		Tenant:   s.Invoke.Tenant,
		Deadline: s.Invoke.Deadline,
	}
	switch {
	case s.Poisson:
		cl.Arrivals = harness.Poisson(s.PerMinute, s.Seed)
	case s.PerMinute > 0:
		cl.Arrivals = harness.PerMinute(s.PerMinute)
	}
	if s.Admit {
		name, tenant := a.dep.Bench.Name, s.Invoke.Tenant
		cl.Admit = func() (func(), error) {
			if tenant == "" {
				return c.Admit(name)
			}
			return c.AdmitTenant(name, tenant)
		}
	}
	return cl, nil
}

// invoke starts one invocation, through the shard router for a federated
// app.
func (a *App) invoke(o engine.InvokeOptions, done func(engine.Result)) error {
	if a.fed == nil {
		return a.dep.Invoke(o, done)
	}
	_, err := a.fed.Invoke(o, done)
	return err
}
