package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads"
)

// This file drives the data-plane fast-path scenario: the Genome fan-out
// benchmark under each scheduling mode, once per feature variant —
//
//	off      — the plain store-hop data plane (baseline)
//	direct   — direct producer→consumer passing over the fabric
//	prewarm  — DAG-lookahead container pre-warming
//	full     — direct + prewarm + output memoization
//
// The cluster is configured cold-start-heavy (keep-alive shorter than the
// workflow makespan, cold start longer than any stage) so pre-warm has
// latency to hide; direct passing and memoization gain regardless. Runs
// are deterministic; same-spec runs yield byte-identical snapshots, which
// CI diffs across two invocations.

// FastPathSpec configures one fast-path scenario sweep.
type FastPathSpec struct {
	Invocations int // closed-loop invocations per variant (default 10)
}

// Fast-path scenario constants.
const (
	fastPathWidth       = 10 // Genome task-node count
	fastPathInvocations = 10
)

// Fast-path variant names, in sweep order.
const (
	VariantOff     = "off"
	VariantDirect  = "direct"
	VariantPrewarm = "prewarm"
	VariantFull    = "full"
)

func variantOptions(variant string) engine.FastPathOptions {
	switch variant {
	case VariantDirect:
		return engine.FastPathOptions{DirectPassing: true}
	case VariantPrewarm:
		return engine.FastPathOptions{Prewarm: true}
	case VariantFull:
		return engine.FastPathOptions{DirectPassing: true, Prewarm: true, Memoize: true}
	default:
		return engine.FastPathOptions{}
	}
}

// FastPathRow is one mode × variant measurement.
type FastPathRow struct {
	Mode        engine.Mode
	Variant     string
	Invocations int
	Mean        time.Duration
	P99         time.Duration
	Stats       engine.FastPathStats
	Direct      store.DirectStats
	Snapshot    *obs.Snapshot
}

// FastPath runs the fast-path sweep under each mode.
func FastPath(spec FastPathSpec, modes []engine.Mode) ([]FastPathRow, error) {
	n := orDefault(spec.Invocations, fastPathInvocations)
	return sweep(modes, []string{VariantOff, VariantDirect, VariantPrewarm, VariantFull},
		func(mode engine.Mode, variant string) (FastPathRow, error) { return fastPathOne(n, mode, variant) })
}

func fastPathOne(n int, mode engine.Mode, variant string) (FastPathRow, error) {
	cfg := cluster.DefaultConfig()
	cfg.KeepAlive = 100 * time.Millisecond
	cfg.ColdStart = 2 * time.Second
	tb := NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
	_, log := observe(tb)

	bench := workloads.Genome(fastPathWidth)
	opts := engine.Options{
		Mode:     mode,
		Data:     engine.DataStore,
		FastPath: variantOptions(variant),
	}
	d, err := tb.Deploy(bench, opts)
	if err != nil {
		return FastPathRow{}, fmt.Errorf("harness: fastpath deploy %s/%s: %w", mode, variant, err)
	}
	rec := ClosedLoop(tb.Env, d.Engine, 1, n)

	return FastPathRow{
		Mode:        mode,
		Variant:     variant,
		Invocations: rec.Count(),
		Mean:        rec.Mean(),
		P99:         rec.P99(),
		Stats:       d.Engine.FastPathStatsSnapshot(),
		Direct:      tb.Runtime.Store.DirectStats(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "fastpath-" + variant,
			"bench":    bench.Name,
			"mode":     mode.String(),
		}),
	}, nil
}

func (r FastPathRow) snapshot() NamedSnapshot {
	return NamedSnapshot{fmt.Sprintf("fastpath-%s-%s.json", r.Mode, r.Variant), r.Snapshot}
}

// CheckFastPath enforces the fast-path gates:
//
//	direct  — pushes happened and the mean beat the baseline;
//	prewarm — slots were issued and claimed, and the mean beat the
//	          baseline (the cold-start-heavy config guarantees overlap);
//	full    — repeated invocations hit the memo cache and the mean beat
//	          every other variant.
func CheckFastPath(rows []FastPathRow) error {
	base := map[engine.Mode]FastPathRow{}
	for _, r := range rows {
		if r.Variant == VariantOff {
			base[r.Mode] = r
		}
	}
	for _, r := range rows {
		where := fmt.Sprintf("fastpath %s/%s", r.Mode, r.Variant)
		off, ok := base[r.Mode]
		if !ok {
			return fmt.Errorf("%s: no baseline row for mode", where)
		}
		switch r.Variant {
		case VariantDirect:
			if r.Stats.DirectPushes == 0 {
				return fmt.Errorf("%s: no direct pushes", where)
			}
			if r.Mean >= off.Mean {
				return fmt.Errorf("%s: mean %v did not beat baseline %v", where, r.Mean, off.Mean)
			}
		case VariantPrewarm:
			if r.Stats.PrewarmIssued == 0 || r.Stats.PrewarmHits == 0 {
				return fmt.Errorf("%s: prewarm issued=%d hits=%d", where,
					r.Stats.PrewarmIssued, r.Stats.PrewarmHits)
			}
			if r.Mean >= off.Mean {
				return fmt.Errorf("%s: mean %v did not beat baseline %v", where, r.Mean, off.Mean)
			}
		case VariantFull:
			if r.Stats.MemoHits == 0 {
				return fmt.Errorf("%s: no memo hits across repeated invocations", where)
			}
			if r.Mean >= off.Mean {
				return fmt.Errorf("%s: mean %v did not beat baseline %v", where, r.Mean, off.Mean)
			}
		}
	}
	return nil
}

// RenderFastPath builds the fast-path comparison table.
func RenderFastPath(rows []FastPathRow) *metrics.Table {
	t := metrics.NewTable("mode", "variant", "n",
		"pushes", "fallbacks", "prewarm", "claims", "memo hits",
		"mean", "p99")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), r.Variant, fmt.Sprintf("%d", r.Invocations),
			fmt.Sprintf("%d", r.Stats.DirectPushes),
			fmt.Sprintf("%d", r.Stats.DirectFallbacks),
			fmt.Sprintf("%d", r.Stats.PrewarmIssued),
			fmt.Sprintf("%d", r.Stats.PrewarmHits),
			fmt.Sprintf("%d", r.Stats.MemoHits),
			metrics.Millis(r.Mean), metrics.Millis(r.P99))
	}
	return t
}
