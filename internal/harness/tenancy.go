package harness

import (
	"fmt"
	"math"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the multi-tenant noisy-neighbor scenario: N well-behaved
// tenants each offering exactly their fair share of the cluster's measured
// saturation rate, plus one noisy tenant offering tenancyNoisyFactor times
// its share. With per-tenant weighted admission buckets and weighted-fair
// Acquire queueing, the noisy tenant must be clipped to its slice at the
// front door while every well-behaved tenant keeps its goodput — zero
// starvation — and the aggregate goodput must match what a single
// untenanted stream achieves at the same offered rate (isolation costs
// nothing). Fully deterministic: same spec, byte-identical snapshots.

// Tenancy scenario constants, sized for a CI smoke run.
const (
	// tenancyWindow is the arrival window, longer than the overload one:
	// each well-behaved tenant offers only 1/(tenancyTenants+1) of
	// saturation, and the 90% zero-starvation gate needs per-tenant counts
	// coarse truncation can't dominate.
	tenancyWindow = 200 * time.Second
	// tenancyTenants is the well-behaved tenant count; one noisy tenant is
	// always added on top.
	tenancyTenants = 20
	// tenancyNoisyFactor is the noisy tenant's offered load as a multiple
	// of its fair share.
	tenancyNoisyFactor = 10
)

// noisyTenant is the misbehaving tenant's identity in the scenario.
const noisyTenant = "noisy"

// TenantOutcome is one tenant's slice of a tenancy run.
type TenantOutcome struct {
	Tenant    string
	Noisy     bool
	Offered   int // arrivals scheduled
	Admitted  int // past the front door (global + tenant gates)
	Rejected  int // turned away at the front door
	Goodput   int // admitted, completed, neither failed nor deadlined
	Deadlined int
	Failed    int
	P50, P99  time.Duration // latency of goodput completions
}

// TenancyRow is one mode's noisy-neighbor run.
type TenancyRow struct {
	Mode     engine.Mode
	SatRate  float64 // measured saturation, arrivals/sec
	FairRate float64 // SatRate / (Tenants + 1)
	AggRate  float64 // total offered arrivals/sec across tenants
	Tenants  []TenantOutcome
	// AggGoodput sums goodput across every tenant; RefGoodput is the
	// single-tenant reference (an untenanted admitted stream at AggRate on
	// an identical fresh testbed) the isolation-overhead gate compares it
	// against.
	AggGoodput int
	RefGoodput int
	Shed       int64 // Acquire-queue rejections across nodes
	// Snapshot is the run's flight recorder; identical specs yield
	// byte-identical snapshots (CI diffs them).
	Snapshot *obs.Snapshot
}

// tenantNames returns the scenario's tenant identities in deterministic
// order: well-behaved tenants first, the noisy tenant last.
func tenantNames() []string {
	names := make([]string, 0, tenancyTenants+1)
	for i := 0; i < tenancyTenants; i++ {
		names = append(names, fmt.Sprintf("tenant-%02d", i))
	}
	return append(names, noisyTenant)
}

// Tenancy runs the noisy-neighbor scenario once per mode. The saturation
// probe runs once per mode and fixes every tenant's fair share; the tenancy
// run and the single-tenant reference each get a fresh testbed so they are
// independent.
func Tenancy() ([]TenancyRow, error) {
	return sweep([]struct{}{{}}, func(mode engine.Mode, _ struct{}) (TenancyRow, error) { return tenancyMode(mode) })
}

// tenancyMode runs the noisy-neighbor scenario and its single-tenant
// reference under one mode.
func tenancyMode(mode engine.Mode) (TenancyRow, error) {
	sat, err := overloadSaturation(mode)
	if err != nil {
		return TenancyRow{}, err
	}
	row, err := tenancyOne(mode, sat)
	if err != nil {
		return TenancyRow{}, err
	}
	// Single-tenant reference: one untenanted admitted stream at the
	// same aggregate offered rate, same admission rate and cap — the
	// goodput a non-isolated front door achieves with the same demand.
	ref, err := overloadOne(mode, sat, row.AggRate/sat, tenancyWindow, true)
	if err != nil {
		return TenancyRow{}, err
	}
	row.RefGoodput = ref.Goodput
	return row, nil
}

func tenancyOne(mode engine.Mode, satRate float64) (TenancyRow, error) {
	bench := workloads.ByName(overloadBench)
	tb := overloadTestbed()
	bus, log := observe(tb)
	if err := armBreaker(tb, bus); err != nil {
		return TenancyRow{}, err
	}
	d, err := tb.Deploy(bench, overloadOptions(mode))
	if err != nil {
		return TenancyRow{}, fmt.Errorf("harness: tenancy deploy %s/%s: %w", overloadBench, mode, err)
	}

	names := tenantNames()
	total := len(names)
	fairRate := satRate / float64(total)

	// Every tenant weighs 1: the fair share is an equal slice. The rate
	// buckets clip each tenant to its slice at the front door; the
	// per-tenant concurrency override stays generous (overloadProbe) so
	// isolation under this scenario is enforced by rate, not by in-flight
	// caps.
	tenantCfgs := make(map[string]admission.TenantConfig, total)
	weights := make(map[string]float64, total)
	for _, name := range names {
		// Burst 2: arrivals at exactly the bucket's refill rate land a hair
		// under one token apart once intervals truncate to integer
		// nanoseconds, and a burst-1 bucket would alternate admit/reject on
		// that knife edge.
		tenantCfgs[name] = admission.TenantConfig{Weight: 1, Burst: 2, MaxConcurrent: overloadProbe}
		weights[name] = 1
	}
	tb.SetTenantWeights(weights)
	ctl, err := admission.New(tb.Env, admission.Config{
		RatePerSec:    satRate,
		MaxConcurrent: 2 * overloadProbe,
		Tenants:       tenantCfgs,
	})
	if err != nil {
		return TenancyRow{}, err
	}
	ctl.SetBus(bus)

	outcomes := make([]TenantOutcome, total)
	recs := make([]*metrics.Recorder, total)
	aggRate := 0.0
	for idx, name := range names {
		idx := idx
		rate := fairRate
		if name == noisyTenant {
			rate = fairRate * tenancyNoisyFactor
		}
		aggRate += rate
		offered := int(rate * tenancyWindow.Seconds())
		if offered < 1 {
			offered = 1
		}
		interval := time.Duration(float64(time.Second) / rate)
		// Stagger tenant streams across one fair-share interval so the
		// arrival pattern interleaves deterministically instead of every
		// tenant firing on the same instant.
		phase := time.Duration(float64(interval) * float64(idx) / float64(total))
		outcomes[idx] = TenantOutcome{
			Tenant:  name,
			Noisy:   name == noisyTenant,
			Offered: offered,
		}
		recs[idx] = &metrics.Recorder{}
		tenant := name
		for k := 0; k < offered; k++ {
			delay := phase + time.Duration(k)*interval
			tb.Env.Schedule(delay, func() {
				release, err := ctl.AdmitTenant(bench.Name, tenant)
				if err != nil {
					outcomes[idx].Rejected++
					return
				}
				outcomes[idx].Admitted++
				d.Engine.InvokeOpts(engine.InvokeOptions{
					Deadline: tb.Env.Now() + sim.Time(overloadDeadline),
					Tenant:   tenant,
				}, func(r engine.Result) {
					release()
					switch {
					case r.DeadlineExceeded:
						outcomes[idx].Deadlined++
					case r.Failed:
						outcomes[idx].Failed++
					default:
						outcomes[idx].Goodput++
						recs[idx].Add(r.Latency())
					}
				})
			})
		}
	}
	tb.Env.Run()

	agg := 0
	for i := range outcomes {
		outcomes[i].P50 = recs[i].Percentile(0.5)
		outcomes[i].P99 = recs[i].P99()
		agg += outcomes[i].Goodput
	}
	return TenancyRow{
		Mode:       mode,
		SatRate:    satRate,
		FairRate:   fairRate,
		AggRate:    aggRate,
		Tenants:    outcomes,
		AggGoodput: agg,
		Shed:       tb.shed(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "tenancy",
			"bench":    overloadBench,
			"mode":     mode.String(),
			"tenants":  fmt.Sprintf("%d", tenancyTenants),
			"noisy":    fmt.Sprintf("%g", float64(tenancyNoisyFactor)),
		}),
	}, nil
}

func (r TenancyRow) snapshot() NamedSnapshot {
	return NamedSnapshot{"tenancy-" + r.Mode.String() + ".json", r.Snapshot}
}

// RenderTenancy builds the per-tenant tenancy table.
func RenderTenancy(rows []TenancyRow) *metrics.Table {
	t := metrics.NewTable("mode", "tenant", "offered", "admitted", "rejected",
		"goodput", "deadlined", "failed", "p50", "p99")
	for _, row := range rows {
		for _, tn := range row.Tenants {
			t.AddRow(row.Mode.String(), tn.Tenant,
				fmt.Sprintf("%d", tn.Offered), fmt.Sprintf("%d", tn.Admitted),
				fmt.Sprintf("%d", tn.Rejected), fmt.Sprintf("%d", tn.Goodput),
				fmt.Sprintf("%d", tn.Deadlined), fmt.Sprintf("%d", tn.Failed),
				metrics.Millis(tn.P50), metrics.Millis(tn.P99))
		}
	}
	return t
}

// CheckTenancy is the zero-starvation gate: per mode, every well-behaved
// tenant must achieve at least tenantFrac of its weighted fair-share
// goodput (its full offered count — it asked for no more than its share),
// and the aggregate goodput must stay within aggTol of the single-tenant
// reference at the same offered rate (isolation must not cost throughput).
func CheckTenancy(rows []TenancyRow, tenantFrac, aggTol float64) error {
	for _, row := range rows {
		for _, tn := range row.Tenants {
			if tn.Noisy {
				continue
			}
			if float64(tn.Goodput) < tenantFrac*float64(tn.Offered) {
				return fmt.Errorf("%s tenant %s starved: goodput %d of %d offered (gate: >= %.0f%%)",
					row.Mode, tn.Tenant, tn.Goodput, tn.Offered, tenantFrac*100)
			}
		}
		if row.RefGoodput > 0 {
			diff := math.Abs(float64(row.AggGoodput) - float64(row.RefGoodput))
			if diff > aggTol*float64(row.RefGoodput) {
				return fmt.Errorf("%s aggregate goodput %d drifted beyond %.0f%% of single-tenant reference %d",
					row.Mode, row.AggGoodput, aggTol*100, row.RefGoodput)
			}
		}
	}
	return nil
}
