package whatif

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// DefaultTolerance is the predicted-vs-measured agreement gate: the two
// gains for the ×0.5 counterfactual must land within this fraction of the
// baseline end-to-end mean.
const DefaultTolerance = 0.10

// validationFactor is the factor whose counterfactual run validates the
// breakdown-based prediction.
const validationFactor = 0.5

// DimReport ranks one dimension in the explain output.
type DimReport struct {
	Dim Dimension `json:"dim"`
	// GainNs/GainFrac are the measured ×0.5 counterfactual gain — "worth
	// Y% if you halve this cost".
	GainNs   int64   `json:"gainNs"`
	GainFrac float64 `json:"gainFrac"`
	// CeilingNs/CeilingFrac are the measured ×0 gain — the most this
	// dimension can ever yield.
	CeilingNs   int64   `json:"ceilingNs"`
	CeilingFrac float64 `json:"ceilingFrac"`
	// PredictedGainNs is the breakdown-extrapolated ×0.5 gain; Discrepancy
	// is |predicted − measured| as a fraction of the baseline mean, and
	// Agrees is whether it clears the tolerance. Disagreement is reported,
	// never suppressed: it usually means the critical path migrated or a
	// cost is hidden inside another component's phase.
	PredictedGainNs int64   `json:"predictedGainNs"`
	Discrepancy     float64 `json:"discrepancy"`
	Agrees          bool    `json:"agrees"`
	// MigratesTo is the dominant critical-path component once the
	// dimension's cost is removed (×0) — where optimization pressure goes
	// next.
	MigratesTo string `json:"migratesTo,omitempty"`
	// Evidence joins the PR-2 utilization attribution: the saturated
	// resource behind this dimension's critical-path time, when one
	// exists.
	Evidence          string  `json:"evidence,omitempty"`
	EvidenceOccupancy float64 `json:"evidenceOccupancy,omitempty"`
}

// Explanation is the full explain artifact: the causal profile, the
// ranked per-dimension reports, and the validation verdict.
type Explanation struct {
	Profile *Profile `json:"profile"`
	// Ranked orders dimensions by measured ×0.5 gain, descending — the
	// "optimize X first" list.
	Ranked []DimReport `json:"ranked"`
	// Tolerance is the agreement gate used (fraction of baseline mean).
	Tolerance float64 `json:"tolerance"`
	// Discrepancies counts ranked dimensions whose prediction missed the
	// measured counterfactual by more than the tolerance.
	Discrepancies int `json:"discrepancies"`
}

// Explain produces the ranked causal report for a scenario: it sweeps
// every dimension, validates predictions against the ×0.5 counterfactual,
// and joins baseline utilization evidence. tolerance ≤ 0 takes
// DefaultTolerance; factors must include 0.5 and 0 (DefaultFactors does).
func Explain(sc Scenario, factors []float64, tolerance float64) (*Explanation, error) {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	if len(factors) == 0 {
		factors = DefaultFactors
	}
	if !hasFactor(factors, validationFactor) || !hasFactor(factors, 0) {
		return nil, fmt.Errorf("whatif: explain needs factors %v and 0 in %v", validationFactor, factors)
	}
	prof, blog, err := sweepWithLog(sc, factors)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Profile: prof, Tolerance: tolerance}
	evidence := baselineEvidence(blog)
	for _, curve := range prof.Curves {
		half := curve.Point(validationFactor)
		free := curve.Point(0)
		r := DimReport{
			Dim:             curve.Dim,
			GainNs:          half.GainNs,
			GainFrac:        half.GainFrac,
			CeilingNs:       free.GainNs,
			CeilingFrac:     free.GainFrac,
			PredictedGainNs: half.PredictedGainNs,
		}
		r.Discrepancy = frac(abs64(half.PredictedGainNs-half.GainNs), prof.Baseline.MeanNs)
		r.Agrees = r.Discrepancy <= tolerance
		if !r.Agrees {
			ex.Discrepancies++
		}
		if dom := dominantComponent(free.Components); dom != "" {
			r.MigratesTo = dom
		}
		if h, ok := bestHotspot(evidence, curve.Dim); ok {
			r.Evidence = h.Resource
			r.EvidenceOccupancy = h.Occupancy
		}
		ex.Ranked = append(ex.Ranked, r)
	}
	// Rank by measured ×0.5 gain, ties by dimension name for determinism.
	for i := 1; i < len(ex.Ranked); i++ {
		for j := i; j > 0; j-- {
			a, b := &ex.Ranked[j-1], &ex.Ranked[j]
			if b.GainNs > a.GainNs || (b.GainNs == a.GainNs && b.Dim < a.Dim) {
				*a, *b = *b, *a
			} else {
				break
			}
		}
	}
	return ex, nil
}

// baselineEvidence aggregates the baseline run's bottleneck attribution
// (critical-path components joined with saturated resources); nil without
// a baseline log.
func baselineEvidence(blog *obs.TraceLog) []obs.Hotspot {
	if blog == nil {
		return nil
	}
	sums := obs.SummarizeBottlenecks(obs.AttributeBottlenecks(blog))
	var all []obs.Hotspot
	for _, s := range sums {
		all = append(all, s.Hotspots...)
	}
	return all
}

// bestHotspot picks the largest hotspot whose component belongs to dim and
// names a concrete resource.
func bestHotspot(hs []obs.Hotspot, dim Dimension) (obs.Hotspot, bool) {
	var best obs.Hotspot
	found := false
	for _, h := range hs {
		if h.Resource == "" || !dimHasComponent(dim, h.Comp) {
			continue
		}
		if !found || h.Duration > best.Duration {
			best, found = h, true
		}
	}
	return best, found
}

func dimHasComponent(dim Dimension, c obs.Component) bool {
	for _, dc := range dim.Components() {
		if dc == c {
			return true
		}
	}
	return false
}

// dominantComponent returns the largest component in a mean-ns map,
// breaking ties by name ("" for an empty map).
func dominantComponent(comps map[string]int64) string {
	best, bestV := "", int64(-1)
	for _, c := range obs.Components() {
		name := c.String()
		if v, ok := comps[name]; ok && v > bestV {
			best, bestV = name, v
		}
	}
	return best
}

// String renders the ranked report for terminals.
func (ex *Explanation) String() string {
	var sb strings.Builder
	b := ex.Profile.Baseline
	fmt.Fprintf(&sb, "causal profile: %s ×%d (%s, seed %d)\n",
		ex.Profile.Scenario.Bench, ex.Profile.Scenario.N,
		ex.Profile.Scenario.Mode, ex.Profile.Scenario.Seed)
	fmt.Fprintf(&sb, "baseline: mean %v  p50 %v  p99 %v\n\n",
		time.Duration(b.MeanNs), time.Duration(b.P50Ns), time.Duration(b.P99Ns))
	for i, r := range ex.Ranked {
		fmt.Fprintf(&sb, "%d. %-9s halving is worth %5.1f%% (mean −%v); ceiling %5.1f%%\n",
			i+1, r.Dim, 100*r.GainFrac, time.Duration(r.GainNs), 100*r.CeilingFrac)
		verdict := fmt.Sprintf("agrees (Δ %.1f%% ≤ %.0f%%)", 100*r.Discrepancy, 100*ex.Tolerance)
		if !r.Agrees {
			verdict = fmt.Sprintf("DISCREPANCY (Δ %.1f%% > %.0f%%) — path migrated or cost hidden in another phase", 100*r.Discrepancy, 100*ex.Tolerance)
		}
		fmt.Fprintf(&sb, "   predicted −%v from critical path; %s\n", time.Duration(r.PredictedGainNs), verdict)
		if r.MigratesTo != "" {
			fmt.Fprintf(&sb, "   at ×0 the critical path is dominated by: %s\n", r.MigratesTo)
		}
		if r.Evidence != "" {
			if strings.HasPrefix(r.Evidence, "queue:") {
				fmt.Fprintf(&sb, "   evidence: %s at mean depth %.1f\n", r.Evidence, r.EvidenceOccupancy)
			} else {
				fmt.Fprintf(&sb, "   evidence: %s at %.0f%% occupancy\n", r.Evidence, 100*r.EvidenceOccupancy)
			}
		}
	}
	if ex.Discrepancies > 0 {
		fmt.Fprintf(&sb, "\n%d dimension(s) failed the predicted-vs-measured gate at ±%.0f%% — the causal runs are authoritative; the breakdown under-explains them.\n",
			ex.Discrepancies, 100*ex.Tolerance)
	} else {
		fmt.Fprintf(&sb, "\nall dimensions: predicted gain agrees with the measured ×%.2g counterfactual within %.0f%% of baseline.\n",
			validationFactor, 100*ex.Tolerance)
	}
	return sb.String()
}

func hasFactor(fs []float64, f float64) bool {
	for _, v := range fs {
		if v == f {
			return true
		}
	}
	return false
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
