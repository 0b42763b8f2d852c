package whatif

import (
	"bytes"
	"testing"
)

// small returns a fast scenario for unit tests.
// curve returns the profile's curve for dim (nil if absent).
func curve(p *Profile, dim Dimension) *Curve {
	for i := range p.Curves {
		if p.Curves[i].Dim == dim {
			return &p.Curves[i]
		}
	}
	return nil
}

func small() Scenario { return GenomeScenario(10, 5) }

func TestPerturbationValidate(t *testing.T) {
	cases := []struct {
		p  Perturbation
		ok bool
	}{
		{Perturbation{Dim: DimExec, Factor: 0.5}, true},
		{Perturbation{Dim: DimExec, Factor: 0.5, Function: "gen-prep"}, true},
		{Perturbation{Dim: DimNetwork, Factor: 0}, true},
		{Perturbation{Dim: "disk", Factor: 0.5}, false},
		{Perturbation{Dim: DimExec, Factor: -1}, false},
		{Perturbation{Dim: DimStore, Factor: 0.5, Function: "gen-prep"}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

// A factor-1 perturbation must be a perfect no-op for every dimension:
// the hooks sit downstream of all placement inputs, so the perturbed run
// replays the baseline exactly.
func TestFactorOneIsIdentity(t *testing.T) {
	sc := small()
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
			t.Errorf("%s ×1: mean %d p99 %d, want baseline %d / %d",
				dim, res.MeanNs, res.P99Ns, base.MeanNs, base.P99Ns)
		}
	}
}

func TestExecSpeedupReducesLatency(t *testing.T) {
	sc := small()
	base, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(sc, &Perturbation{Dim: DimExec, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if half.MeanNs >= base.MeanNs {
		t.Fatalf("halving exec did not help: %d -> %d", base.MeanNs, half.MeanNs)
	}
	free, err := Run(sc, &Perturbation{Dim: DimExec, Factor: 0})
	if err != nil {
		t.Fatal(err)
	}
	if free.MeanNs >= half.MeanNs {
		t.Fatalf("free exec not faster than half: %d -> %d", half.MeanNs, free.MeanNs)
	}
}

// Scaling one function must gain no more than scaling every function.
func TestPerFunctionScopesTheGain(t *testing.T) {
	sc := small()
	base, err := Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(sc, &Perturbation{Dim: DimExec, Factor: 0.5, Function: "gen-individual"})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(sc, &Perturbation{Dim: DimExec, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	gainOne := base.MeanNs - one.MeanNs
	gainAll := base.MeanNs - all.MeanNs
	if gainOne <= 0 {
		t.Fatalf("scaling gen-individual gained nothing (%d)", gainOne)
	}
	if gainOne > gainAll {
		t.Fatalf("per-function gain %d exceeds all-function gain %d", gainOne, gainAll)
	}
}

func TestSweepDeterministic(t *testing.T) {
	sc := GenomeScenario(10, 3)
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
		t.Fatal("same-seed sweeps are not byte-identical")
	}
}

func TestExplainRanksAndValidates(t *testing.T) {
	ex, err := Explain(small(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Ranked) != len(Dimensions()) {
		t.Fatalf("ranked %d dims, want %d", len(ex.Ranked), len(Dimensions()))
	}
	for i := 1; i < len(ex.Ranked); i++ {
		if ex.Ranked[i].GainNs > ex.Ranked[i-1].GainNs {
			t.Fatalf("ranking not descending at %d: %+v", i, ex.Ranked)
		}
	}
	// Exec dominates the Genome scenario; the causal ranking must find it.
	if ex.Ranked[0].Dim != DimExec {
		t.Fatalf("top dimension %s, want %s", ex.Ranked[0].Dim, DimExec)
	}
	if ex.Ranked[0].GainNs <= 0 {
		t.Fatal("top dimension shows no gain")
	}
	if ex.Discrepancies != 0 {
		t.Fatalf("explain reported %d discrepancies on the canonical scenario:\n%s",
			ex.Discrepancies, ex.String())
	}
	if s := ex.String(); s == "" {
		t.Fatal("empty rendering")
	}
}

func TestExplainRequiresValidationFactors(t *testing.T) {
	if _, err := Explain(small(), []float64{0.75}, 0); err == nil {
		t.Fatal("explain accepted factors without 0.5 and 0")
	}
}

// The shifted breakdown must show the critical path migrating once the
// dominant cost is removed: at exec ×0 the dominant component cannot be
// exec anymore.
func TestPathMigration(t *testing.T) {
	prof, err := Sweep(small(), []float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	free := curve(prof, DimExec).Point(0)
	if free == nil {
		t.Fatal("missing exec ×0 point")
	}
	if dom := dominantComponent(free.Components); dom == "exec" {
		t.Fatalf("exec still dominates after exec ×0: %v", free.Components)
	}
}
