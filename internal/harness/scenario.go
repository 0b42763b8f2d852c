package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the scenario registry: the deterministic, gated extension
// scenarios (chaos, overload, durable, fastpath, federation, tenants)
// behind one interface, plus the scaffolding they share. Every scenario is
// a pure function of its inputs, so two same-input runs write
// byte-identical snapshots, which is what CI diffs.

// Scenario is one registered scenario.
type Scenario struct {
	Name  string // the faasflow-experiments -run name
	Title string
	// Cap bounds the invocation count: the scenario needs in-flight
	// overlap, not volume. 0 means the scenario has a fixed size and
	// ignores n.
	Cap int
	run func(n int, noAdmission bool) (ScenarioResult, error)
}

// ScenarioResult is one scenario run's output.
type ScenarioResult struct {
	Table *metrics.Table
	// Snapshots are the run's flight recorders, named by file. Every name
	// carries the scenario's prefix, so one directory holds them all.
	Snapshots []NamedSnapshot
	Summary   []string // lines printed after the table
	Gate      error    // the scenario's acceptance gate; nil when it holds
}

// NamedSnapshot is a snapshot with its file name.
type NamedSnapshot struct {
	Name     string
	Snapshot *obs.Snapshot
}

// Run runs the scenario with n invocations, capped at Cap. noAdmission
// removes the overload scenario's front-door admission control (the
// counterfactual whose gate is expected to fail); the others ignore it.
func (s Scenario) Run(n int, noAdmission bool) (ScenarioResult, error) {
	if s.Cap > 0 && n > s.Cap {
		n = s.Cap
	}
	return s.run(n, noAdmission)
}

// Scenarios lists every registered scenario in run order.
var Scenarios = []Scenario{
	{"chaos", "chaos availability: kill a worker mid-run, require zero lost invocations", 40,
		func(n int, _ bool) (ScenarioResult, error) {
			rows, err := Chaos(ChaosSpec{Invocations: n}, nil)
			return tabulate(rows, err, RenderChaos, CheckChaos)
		}},
	{"overload", "overload control: sweep arrival rate past saturation, require graceful degradation", 0,
		func(_ int, noAdmission bool) (ScenarioResult, error) {
			rows, err := Overload(OverloadSpec{NoAdmission: noAdmission}, nil)
			return tabulate(rows, err, RenderOverload, func(rows []OverloadRow) error { return CheckOverload(rows, 0.7) })
		}},
	{"durable", "durable execution: engine crash replays the journal, node kill reads replicas", 40,
		func(n int, _ bool) (ScenarioResult, error) {
			rows, err := Durable(DurableSpec{Invocations: n}, nil)
			return tabulate(rows, err, RenderDurable, CheckDurable)
		}},
	{"fastpath", "data-plane fast path: direct passing, pre-warm, memoization vs the store-hop baseline", 20,
		func(n int, _ bool) (ScenarioResult, error) {
			rows, err := FastPath(FastPathSpec{Invocations: n}, nil)
			return tabulate(rows, err, RenderFastPath, CheckFastPath)
		}},
	{"federation", "engine federation: rolling member kills fail over by lease expiry and journal handoff", 24,
		func(n int, _ bool) (ScenarioResult, error) {
			rows, err := Federation(FederationSpec{Invocations: n}, nil)
			return tabulate(rows, err, RenderFederation, CheckFederation)
		}},
	{"tenants", "multi-tenant isolation: one noisy tenant at 10x fair share, zero starvation required", 0,
		func(int, bool) (ScenarioResult, error) {
			rows, err := Tenancy(TenancySpec{}, nil)
			res, err := tabulate(rows, err, RenderTenancy, func(rows []TenancyRow) error { return CheckTenancy(rows, 0.9, 0.1) })
			for _, r := range rows {
				res.Summary = append(res.Summary, fmt.Sprintf(
					"%s: saturation %.2f/s, fair share %.3f/s per tenant, aggregate goodput %d (single-tenant reference %d), shed %d",
					r.Mode, r.SatRate, r.FairRate, r.AggGoodput, r.RefGoodput, r.Shed))
			}
			return res, err
		}},
}

// scenarioRow is a scenario's per-run row: it names its own snapshot.
type scenarioRow interface{ snapshot() NamedSnapshot }

// tabulate renders and gates a scenario's rows and collects their
// snapshots.
func tabulate[R scenarioRow](rows []R, err error, render func([]R) *metrics.Table, gate func([]R) error) (ScenarioResult, error) {
	if err != nil {
		return ScenarioResult{}, err
	}
	res := ScenarioResult{Table: render(rows), Gate: gate(rows)}
	for _, r := range rows {
		res.Snapshots = append(res.Snapshots, r.snapshot())
	}
	return res, nil
}

// bothModes is every scenario's default mode list.
var bothModes = []engine.Mode{engine.ModeWorkerSP, engine.ModeMasterSP}

// sweep runs one per mode × variant, mode-major; no modes means both.
func sweep[V, R any](modes []engine.Mode, variants []V, one func(engine.Mode, V) (R, error)) ([]R, error) {
	if len(modes) == 0 {
		modes = bothModes
	}
	rows := make([]R, 0, len(modes)*len(variants))
	for _, mode := range modes {
		for _, v := range variants {
			row, err := one(mode, v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// orDefault returns v, or def when v is the zero value.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// observe attaches a fresh bus to the testbed and records every event it
// carries into the returned trace log.
func observe(tb *Testbed) (*obs.Bus, *obs.TraceLog) {
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	tb.AttachBus(bus)
	return bus, log
}

// recoveryOptions is the fault-recovering deployment the chaos, durable
// and federation scenarios run: store data plane, task timeouts and
// bounded re-issue, and jr as the journal (nil for none). The timeout must
// exceed the longest healthy attempt end-to-end (acquire queue + cold
// start + fetch + exec + store), or healthy work gets re-issued; it bounds
// how long a stranded task waits before the recovery path kicks in.
func recoveryOptions(mode engine.Mode, jr *journal.WAL) engine.Options {
	return engine.Options{
		Mode:        mode,
		Data:        engine.DataStore,
		Journal:     jr,
		TaskTimeout: 20 * time.Second,
		BackoffBase: 200 * time.Millisecond,
		BackoffMax:  5 * time.Second,
		MaxReissues: 10,
	}
}

// staggeredRun submits n invocations interval apart, runs the simulation
// dry, and reports how many completed, how many of those failed, and
// their latencies.
func staggeredRun(tb *Testbed, eng *engine.Deployment, n int, interval time.Duration) (completed, failed int, rec *metrics.Recorder) {
	rec = &metrics.Recorder{}
	for i := 0; i < n; i++ {
		tb.Env.Schedule(time.Duration(i)*interval, func() {
			eng.Invoke(func(r engine.Result) {
				completed++
				if r.Failed {
					failed++
				}
				rec.Add(r.Latency())
			})
		})
	}
	tb.Env.Run()
	return completed, failed, rec
}

// armBreaker installs a store circuit breaker publishing to bus: overload
// must not be able to wedge a run on a browned-out database (no brownout
// is injected, but the armed watchdog is part of the configuration under
// test).
func armBreaker(tb *Testbed, bus *obs.Bus) error {
	breaker, err := store.NewBreaker(tb.Env, store.BreakerConfig{Timeout: 30 * time.Second})
	if err != nil {
		return err
	}
	breaker.SetBus(bus)
	tb.Runtime.Store.SetBreaker(breaker)
	return nil
}

// shed sums Acquire-queue rejections across the worker nodes.
func (tb *Testbed) shed() int64 {
	var n int64
	for _, w := range tb.Workers {
		n += tb.Runtime.Nodes[w].Stats().Shed
	}
	return n
}
