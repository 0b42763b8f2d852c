package harness

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the overload-control scenario: an open-loop arrival
// stream swept past the cluster's saturation point. With the controls on —
// front-door admission (token bucket + concurrency cap), bounded Acquire
// queues, per-invocation deadlines, and the store circuit breaker armed —
// goodput must flat-top at saturation instead of collapsing: capacity is
// spent only on work that finishes. The -no-admission counterfactual
// removes the front door and lets every arrival in; partially-executed
// invocations then burn containers before being shed or deadlined, and
// goodput at 2x offered load falls off the peak. Both variants are fully
// deterministic: same spec, byte-identical snapshots.

// OverloadSpec configures one overload sweep.
type OverloadSpec struct {
	// NoAdmission removes the front-door controller (the counterfactual:
	// backpressure and deadlines alone, goodput collapses past saturation).
	NoAdmission bool
}

// Overload scenario constants, sized for a CI smoke run. The tenancy
// scenario shares the bench, deadline, queue depth and probe.
const (
	overloadBench      = "IR"
	overloadWindow     = 20 * time.Second // arrival window per rate point
	overloadDeadline   = 8 * time.Second  // each invocation's end-to-end budget
	overloadQueueDepth = 8                // per-function Acquire queue bound
	// overloadProbe is the closed-loop client count of the saturation
	// probe; the admission concurrency cap is derived from it.
	overloadProbe = 8
)

// overloadMultipliers are the offered-rate points as fractions of the
// measured saturation rate.
var overloadMultipliers = []float64{0.25, 0.5, 1, 1.5, 2}

// OverloadRow is one rate point of the sweep.
type OverloadRow struct {
	Mode       engine.Mode
	Multiplier float64       // offered rate as a fraction of saturation
	Rate       float64       // offered arrivals/sec
	Offered    int           // arrivals scheduled
	Admitted   int           // past the admission controller
	Rejected   int           // turned away at the front door
	Goodput    int           // admitted, completed, neither failed nor deadlined
	Deadlined  int           // admitted but ran out of deadline
	Failed     int           // admitted but failed (queue shed inside the engine)
	Shed       int64         // Acquire-queue rejections across nodes
	P50, P99   time.Duration // latency of goodput completions
	// Snapshot is the rate point's flight recorder; identical specs yield
	// byte-identical snapshots (CI diffs them).
	Snapshot *obs.Snapshot
}

// Saturation reports the probe's measured capacity, attached to the first
// row of each mode for rendering.
func (r OverloadRow) SatRate() float64 { return r.Rate / r.Multiplier }

func overloadTestbed() *Testbed {
	cfg := cluster.DefaultConfig()
	cfg.MaxQueueDepth = overloadQueueDepth
	return NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
}

func overloadOptions(mode engine.Mode) engine.Options {
	return engine.Options{Mode: mode, Data: engine.DataStore}
}

// overloadSaturation measures the cluster's saturation throughput for the
// benchmark under one mode: overloadProbe closed-loop clients drive it
// flat out and the completion rate is the capacity every sweep point is
// sized from.
func overloadSaturation(mode engine.Mode) (float64, error) {
	tb := overloadTestbed()
	d, err := tb.Deploy(workloads.ByName(overloadBench), overloadOptions(mode))
	if err != nil {
		return 0, fmt.Errorf("harness: overload probe deploy %s/%s: %w", overloadBench, mode, err)
	}
	// overloadProbe closed-loop clients, bounded per client. Elapsed time
	// is the last completion instant — not the drained clock, which would
	// include the keep-alive eviction tail and dwarf the measurement.
	const perClient = 8
	total := 0
	var lastDone sim.Time
	for i := 0; i < overloadProbe; i++ {
		remaining := perClient
		var next func()
		next = func() {
			if remaining == 0 {
				return
			}
			remaining--
			d.Engine.Invoke(func(engine.Result) {
				total++
				lastDone = tb.Env.Now()
				next()
			})
		}
		next()
	}
	tb.Env.Run()
	elapsed := lastDone.Seconds()
	if total == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("harness: overload probe measured nothing (%d done in %.2fs)", total, elapsed)
	}
	return float64(total) / elapsed, nil
}

// Overload runs the sweep once per mode. Each rate point runs on a fresh
// testbed so points are independent; the saturation probe runs once per
// mode and fixes the admission rate and every offered rate.
func Overload(spec OverloadSpec, modes []engine.Mode) ([]OverloadRow, error) {
	sats := map[engine.Mode]float64{}
	return sweep(modes, overloadMultipliers, func(mode engine.Mode, m float64) (OverloadRow, error) {
		sat, ok := sats[mode]
		if !ok {
			var err error
			if sat, err = overloadSaturation(mode); err != nil {
				return OverloadRow{}, err
			}
			sats[mode] = sat
		}
		return overloadOne(mode, sat, m, overloadWindow, !spec.NoAdmission)
	})
}

// overloadOne offers multiplier × satRate arrivals/sec for window on a
// fresh testbed, behind front-door admission when admit is set.
func overloadOne(mode engine.Mode, satRate, multiplier float64, window time.Duration, admit bool) (OverloadRow, error) {
	bench := workloads.ByName(overloadBench)
	tb := overloadTestbed()
	bus, log := observe(tb)
	if err := armBreaker(tb, bus); err != nil {
		return OverloadRow{}, err
	}
	d, err := tb.Deploy(bench, overloadOptions(mode))
	if err != nil {
		return OverloadRow{}, fmt.Errorf("harness: overload deploy %s/%s: %w", overloadBench, mode, err)
	}

	var ctl *admission.Controller
	if admit {
		// Admit at the measured capacity with headroom for in-flight work:
		// the rate limiter pins sustained admissions to saturation and the
		// concurrency cap bounds how much admitted work can pile up.
		ctl, err = admission.New(tb.Env, admission.Config{
			RatePerSec:    satRate,
			MaxConcurrent: 2 * overloadProbe,
		})
		if err != nil {
			return OverloadRow{}, err
		}
		ctl.SetBus(bus)
	}

	rate := satRate * multiplier
	offered := int(rate * window.Seconds())
	if offered < 1 {
		offered = 1
	}
	interval := time.Duration(float64(time.Second) / rate)

	good := &metrics.Recorder{}
	admitted, rejected, goodN, deadlined, failed := 0, 0, 0, 0, 0
	for i := 0; i < offered; i++ {
		delay := time.Duration(i) * interval
		tb.Env.Schedule(delay, func() {
			if err := ctl.Admit(bench.Name); err != nil {
				rejected++
				return
			}
			admitted++
			d.Engine.InvokeOpts(engine.InvokeOptions{
				Deadline: tb.Env.Now() + sim.Time(overloadDeadline),
			}, func(r engine.Result) {
				ctl.Release()
				switch {
				case r.DeadlineExceeded:
					deadlined++
				case r.Failed:
					failed++
				default:
					goodN++
					good.Add(r.Latency())
				}
			})
		})
	}
	tb.Env.Run()

	return OverloadRow{
		Mode:       mode,
		Multiplier: multiplier,
		Rate:       rate,
		Offered:    offered,
		Admitted:   admitted,
		Rejected:   rejected,
		Goodput:    goodN,
		Deadlined:  deadlined,
		Failed:     failed,
		Shed:       tb.shed(),
		P50:        good.Percentile(0.5),
		P99:        good.P99(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario":   "overload",
			"bench":      overloadBench,
			"mode":       mode.String(),
			"multiplier": fmt.Sprintf("%g", multiplier),
			"admission":  fmt.Sprintf("%t", admit),
		}),
	}, nil
}

func (r OverloadRow) snapshot() NamedSnapshot {
	return NamedSnapshot{fmt.Sprintf("overload-%s-x%g.json", r.Mode, r.Multiplier), r.Snapshot}
}

// RenderOverload builds the per-rate overload table.
func RenderOverload(rows []OverloadRow) *metrics.Table {
	t := metrics.NewTable("mode", "xsat", "rate/s", "offered", "admitted", "rejected",
		"goodput", "deadlined", "failed", "shed", "p50", "p99")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), fmt.Sprintf("%.2f", r.Multiplier),
			fmt.Sprintf("%.2f", r.Rate),
			fmt.Sprintf("%d", r.Offered), fmt.Sprintf("%d", r.Admitted),
			fmt.Sprintf("%d", r.Rejected), fmt.Sprintf("%d", r.Goodput),
			fmt.Sprintf("%d", r.Deadlined), fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.Shed),
			metrics.Millis(r.P50), metrics.Millis(r.P99))
	}
	return t
}

// CheckOverload is the graceful-degradation gate: per mode, goodput at the
// highest offered rate must hold at least frac of the sweep's peak
// goodput. With admission on the curve flat-tops and the gate passes;
// without it the collapse past saturation trips the gate.
func CheckOverload(rows []OverloadRow, frac float64) error {
	byMode := map[engine.Mode][]OverloadRow{}
	var modes []engine.Mode
	for _, r := range rows {
		if _, ok := byMode[r.Mode]; !ok {
			modes = append(modes, r.Mode)
		}
		byMode[r.Mode] = append(byMode[r.Mode], r)
	}
	for _, mode := range modes {
		mrows := byMode[mode]
		peak, last := 0, mrows[len(mrows)-1]
		for _, r := range mrows {
			if r.Goodput > peak {
				peak = r.Goodput
			}
		}
		if peak == 0 {
			return fmt.Errorf("%s produced zero goodput at every rate", mode)
		}
		if float64(last.Goodput) < frac*float64(peak) {
			return fmt.Errorf("%s goodput collapsed: %d at %.2fx saturation vs peak %d (gate: >= %.0f%%)",
				mode, last.Goodput, last.Multiplier, peak, frac*100)
		}
	}
	return nil
}
