package whatif

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// fastScenario is the canonical scenario with the whole data-plane fast
// path enabled: direct producer→consumer passing, DAG-lookahead pre-warm,
// and output memoization.
func fastScenario(width, n int) Scenario {
	sc := GenomeScenario(width, n)
	sc.Opts.FastPath = engine.FastPathOptions{
		DirectPassing: true,
		Prewarm:       true,
		Memoize:       true,
	}
	return sc
}

// The factor-1 identity must survive the fast path: direct pushes, memo
// lookups, and pre-warm acquisitions are all costs downstream of the
// scheduler inputs, so a ×1 perturbation on any dimension replays the
// fast-path baseline exactly.
func TestFactorOneIdentityWithFastPath(t *testing.T) {
	sc := fastScenario(10, 5)
	base, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range Dimensions() {
		res, err := Run(sc, &Perturbation{Dim: dim, Factor: 1})
		if err != nil {
			t.Fatalf("%s: %v", dim, err)
		}
		if res.MeanNs != base.MeanNs || res.P99Ns != base.P99Ns {
			t.Errorf("%s ×1 with fast path: mean %d p99 %d, want baseline %d / %d",
				dim, res.MeanNs, res.P99Ns, base.MeanNs, base.P99Ns)
		}
		for c, v := range base.Components {
			if res.Components[c] != v {
				t.Errorf("%s ×1: component %s = %d, want %d", dim, c, res.Components[c], v)
			}
		}
	}
}

// Same-seed sweeps with every fast-path feature on must stay byte-identical
// — the CI determinism gate extends to the new data plane.
func TestSweepDeterministicWithFastPath(t *testing.T) {
	sc := fastScenario(10, 3)
	factors := []float64{0.5, 0}
	p1, err := Sweep(sc, factors)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Sweep(sc, factors)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same-seed fast-path sweeps are not byte-identical")
	}
}

// Diffing a baseline profile against a fast-path profile must show the new
// components joining the critical path (CompDirect replacing store hops,
// CompPrewarmOverlap replacing acquire time) and an end-to-end gain.
func TestFastPathJoinsCriticalPath(t *testing.T) {
	// A keep-alive shorter than the workflow makespan forces cold starts in
	// the measured invocations, and a cold start longer than any stage's
	// execution leaves a residual after the pre-warm overlap: without
	// pre-warm the full cold start serializes into the acquire phase; with
	// it only the residual surfaces, as CompPrewarmOverlap.
	cfg := cluster.DefaultConfig()
	cfg.KeepAlive = 100 * time.Millisecond
	cfg.ColdStart = 2 * time.Second
	baseSc := GenomeScenario(10, 5)
	baseSc.Spec.Cluster = cfg
	fastSc := GenomeScenario(10, 5)
	fastSc.Spec.Cluster = cfg
	fastSc.Opts.FastPath = engine.FastPathOptions{DirectPassing: true, Prewarm: true}
	base, err := Run(baseSc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(fastSc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanNs >= base.MeanNs {
		t.Fatalf("fast path did not gain: mean %d -> %d", base.MeanNs, fast.MeanNs)
	}
	oldS, newS := base.Summary(), fast.Summary()
	if newS.MeanTotal >= oldS.MeanTotal {
		t.Fatalf("critical path shows no gain: %v -> %v", oldS.MeanTotal, newS.MeanTotal)
	}
	// Each fast-path component appears on the new critical path only.
	for _, c := range []obs.Component{obs.CompDirect, obs.CompPrewarmOverlap} {
		if _, old := oldS.Mean[c]; old {
			t.Fatalf("%v already on the baseline critical path", c)
		}
		if _, ok := newS.Mean[c]; !ok {
			t.Fatalf("%v did not join the critical path", c)
		}
	}
	// The store hop the direct path replaces must shrink on the new side.
	if sd, ok := newS.Mean[obs.CompStore]; ok && sd > oldS.Mean[obs.CompStore] {
		t.Fatalf("store component grew under direct passing: %v -> %v", oldS.Mean[obs.CompStore], sd)
	}
}
