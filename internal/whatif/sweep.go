package whatif

import (
	"encoding/json"

	"repro/internal/engine"
	"repro/internal/obs"
)

// ProfileVersion is the sweep artifact's schema version.
const ProfileVersion = 1

// DefaultFactors is the standard virtual-speedup ladder: mild, half,
// aggressive, and free (the gain ceiling).
var DefaultFactors = []float64{0.75, 0.5, 0.25, 0}

// Point is one counterfactual measurement on a dimension's speedup curve.
type Point struct {
	Factor float64 `json:"factor"`
	MeanNs int64   `json:"meanNs"`
	P50Ns  int64   `json:"p50Ns"`
	P99Ns  int64   `json:"p99Ns"`
	// GainNs is baseline mean − this mean: positive when the speedup
	// helped end-to-end latency.
	GainNs int64 `json:"gainNs"`
	// GainFrac is GainNs over the baseline mean.
	GainFrac float64 `json:"gainFrac"`
	// PredictedGainNs extrapolates the baseline critical-path breakdown:
	// (1−factor) × the mean time of the dimension's components. The gap
	// between predicted and measured is the self-validation signal.
	PredictedGainNs int64 `json:"predictedGainNs"`
	// Components is the counterfactual run's shifted critical-path
	// attribution (mean ns per component).
	Components map[string]int64 `json:"components"`
}

// Curve is one dimension's full speedup curve.
type Curve struct {
	Dim    Dimension `json:"dim"`
	Points []Point   `json:"points"`
}

// Point returns the curve's measurement at factor f (nil if absent).
func (c *Curve) Point(f float64) *Point {
	for i := range c.Points {
		if c.Points[i].Factor == f {
			return &c.Points[i]
		}
	}
	return nil
}

// ScenarioInfo records the replayed scenario, enough to reproduce the
// profile bit-for-bit.
type ScenarioInfo struct {
	Bench   string `json:"bench"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
	Warmup  int    `json:"warmup"`
	N       int    `json:"n"`
}

// Profile is a complete causal profile: the baseline plus one speedup
// curve per dimension. Two sweeps of the same scenario are byte-identical
// when marshalled.
type Profile struct {
	Version  int          `json:"version"`
	Scenario ScenarioInfo `json:"scenario"`
	Factors  []float64    `json:"factors"`
	Baseline RunResult    `json:"baseline"`
	Curves   []Curve      `json:"curves"`
}

// Marshal renders the profile as deterministic indented JSON.
func (p *Profile) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Sweep runs the full virtual-speedup grid — every dimension × every
// factor, plus one baseline — and assembles the causal profile. Factors
// defaults to DefaultFactors. The sweep is exact (each point is a real
// counterfactual run) and deterministic.
func Sweep(sc Scenario, factors []float64) (*Profile, error) {
	p, _, err := sweepWithLog(sc, factors)
	return p, err
}

// sweepWithLog also returns the baseline run's trace log for evidence
// joining in Explain.
func sweepWithLog(sc Scenario, factors []float64) (*Profile, *obs.TraceLog, error) {
	sc = sc.withDefaults()
	if len(factors) == 0 {
		factors = DefaultFactors
	}
	base, blog, err := runScenario(sc, nil)
	if err != nil {
		return nil, nil, err
	}
	prof := &Profile{
		Version: ProfileVersion,
		Scenario: ScenarioInfo{
			Bench:   sc.Bench.Name,
			Mode:    modeName(sc.Opts.Mode),
			Workers: sc.Spec.Workers,
			Seed:    sc.Spec.Seed,
			Warmup:  sc.Warmup,
			N:       sc.N,
		},
		Factors:  append([]float64(nil), factors...),
		Baseline: *base,
	}
	baseSum := base.Summary()
	for _, dim := range Dimensions() {
		curve := Curve{Dim: dim}
		for _, f := range factors {
			res, err := Run(sc, &Perturbation{Dim: dim, Factor: f})
			if err != nil {
				return nil, nil, err
			}
			gain := base.MeanNs - res.MeanNs
			pt := Point{
				Factor:          f,
				MeanNs:          res.MeanNs,
				P50Ns:           res.P50Ns,
				P99Ns:           res.P99Ns,
				GainNs:          gain,
				GainFrac:        frac(gain, base.MeanNs),
				PredictedGainNs: predictGain(baseSum, dim, f),
				Components:      res.Components,
			}
			curve.Points = append(curve.Points, pt)
		}
		prof.Curves = append(prof.Curves, curve)
	}
	return prof, blog, nil
}

// predictGain extrapolates the baseline breakdown: scaling dim's
// components by f should save (1−f) × their mean critical-path time.
func predictGain(base obs.Summary, dim Dimension, f float64) int64 {
	var sum int64
	for _, c := range dim.Components() {
		sum += base.Mean[c].Nanoseconds()
	}
	return int64(float64(sum) * (1 - f))
}

func frac(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func modeName(m engine.Mode) string {
	if m == engine.ModeMasterSP {
		return "MasterSP"
	}
	return "WorkerSP"
}
