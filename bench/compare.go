package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare applies: each end-to-end
// metric's direction and bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare reads the run records of a baseline (A) and a candidate (B),
// one JSON line per run as -out writes them, and labels every workload ×
// end-to-end metric improved, unchanged, regressed or unresolved under
// the bounds in BENCHMARK.json. Metrics that repeat exactly for a seed
// are judged on runs paired by seed instead. A -claim is accepted only
// when B wins at least 9 of every 10 runs paired by seed, the medians
// differ by more than A's interquartile range, and B failed no larger
// share of ops than A. It returns 1 on a regression, an unmet claim, a B
// run that failed its checks, or a workload with fewer B runs than A runs.
func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	var claims []string
	fs.Func("claim", "metric@workload the candidate claims to improve (repeatable)", func(s string) error {
		if !strings.Contains(s, "@") {
			return fmt.Errorf("want metric@workload, got %q", s)
		}
		claims = append(claims, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var aFiles, bFiles []string
	side := &aFiles
	for _, a := range fs.Args() {
		if a == "--" {
			side = &bFiles
			continue
		}
		*side = append(*side, a)
	}
	if len(aFiles) == 0 || len(bFiles) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bench BENCHMARK.json] [-claim metric@workload] A... -- B...")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRecords(aFiles)
	if err == nil {
		var b map[string][]record
		if b, err = loadRecords(bFiles); err == nil {
			return report(os.Stdout, sp, a, b, claims)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// loadRecords reads untraced run records and groups them by workload, in
// file order.
func loadRecords(paths []string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for n := 1; sc.Scan(); n++ {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", p, n, err)
			}
			if r.Trace == 0 {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// exactTolerance is how much worse, as a share of A's value, a metric that
// repeats exactly for a seed may get on any same-seed pair before its row
// counts as regressed.
const exactTolerance = 0.005

func report(w io.Writer, sp spec, a, b map[string][]record, claims []string) int {
	seen := map[string]bool{}
	var workloads []string
	for _, side := range []map[string][]record{a, b} {
		for wl := range side {
			if !seen[wl] {
				seen[wl] = true
				workloads = append(workloads, wl)
			}
		}
	}
	sort.Strings(workloads)
	code := 0
	for _, wl := range workloads {
		badA, badB := incorrect(a[wl]), incorrect(b[wl])
		fmt.Fprintf(w, "%-18s runs: A %d (%d failed checks), B %d (%d failed checks)\n",
			wl, len(a[wl]), badA, len(b[wl]), badB)
		if badB > 0 || len(b[wl]) < len(a[wl]) {
			code = 1
		}
	}
	fmt.Fprintf(w, "%-18s %-17s %12s %12s %12s %12s %12s %12s %8s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "verdict")
	for _, wl := range workloads {
		ps := pairs(a[wl], b[wl])
		for _, m := range sp.EndToEnd {
			av, bv := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			v := verdictOf(av, bv, lower, m.Bound)
			label := v.label
			if len(ps) > 0 && slices.Contains(a[wl][0].Exact, m.Name) {
				v.label = exactVerdict(ps, m.Name, lower)
				label = v.label + " (same seed)"
			}
			if v.label == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-17s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%%  %s\n",
				wl, m.Name, v.a[0], v.a[1], v.a[2], v.b[0], v.b[1], v.b[2], 100*v.change, label)
		}
		if diff := detDiffs(ps); len(ps) > 0 {
			fmt.Fprintf(w, "%-18s deterministic outcome: %d of %d same-seed pairs differ\n", wl, diff, len(ps))
		}
	}
	for _, c := range claims {
		metricName, wl, _ := strings.Cut(c, "@")
		lower := true
		for _, m := range sp.EndToEnd {
			if m.Name == metricName {
				lower = m.Better == "lower"
			}
		}
		ok, why := claimHolds(pairs(a[wl], b[wl]), metricName, lower)
		label := "met"
		if !ok {
			label, code = "not met", 1
		}
		fmt.Fprintf(w, "claim %s: %s (%s)\n", c, label, why)
	}
	return code
}

// incorrect counts the runs that failed their checks.
func incorrect(rs []record) int {
	n := 0
	for _, r := range rs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// values returns a metric's value in every run that passed its checks.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairs matches runs of A and B on the same seed, in file order within a
// seed, and keeps the pairs in which both runs passed their checks.
func pairs(a, b []record) [][2]record {
	bySeed := map[uint64][]record{}
	for _, r := range b {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	var out [][2]record
	for _, ra := range a {
		q := bySeed[ra.Seed]
		if len(q) == 0 {
			continue
		}
		rb := q[0]
		bySeed[ra.Seed] = q[1:]
		if ra.Correct && rb.Correct {
			out = append(out, [2]record{ra, rb})
		}
	}
	return out
}

// pairValues returns a metric's value in both runs of every pair that
// reports it.
func pairValues(ps [][2]record, name string) (av, bv []float64) {
	for _, p := range ps {
		ma, okA := p[0].Metrics[name]
		mb, okB := p[1].Metrics[name]
		if okA && okB {
			av, bv = append(av, ma.Value), append(bv, mb.Value)
		}
	}
	return av, bv
}

// worseBy is how much worse y is than x, as a share of x: negative when y
// is better.
func worseBy(x, y float64, lower bool) float64 {
	base := math.Abs(x)
	if base == 0 {
		base = 1
	}
	d := (y - x) / base
	if !lower {
		d = -d
	}
	return d
}

type verdict struct {
	a, b   [3]float64 // q1, median, q3
	change float64    // (B - A) / A at the medians
	label  string
}

// verdictOf labels B against A for one metric with the given bound, a
// share of A's median. A spread (interquartile range over the median)
// wider than the bound on either side leaves the metric unresolved,
// unless every run of B is better than every run of A.
func verdictOf(av, bv []float64, lower bool, bound float64) verdict {
	var v verdict
	v.a[0], v.a[1], v.a[2] = quartiles(av)
	v.b[0], v.b[1], v.b[2] = quartiles(bv)
	base := math.Abs(v.a[1])
	if base == 0 {
		base = 1
	}
	v.change = (v.b[1] - v.a[1]) / base
	worse := worseBy(v.a[1], v.b[1], lower)
	spread := math.Max((v.a[2]-v.a[0])/base, (v.b[2]-v.b[0])/base)
	switch {
	case spread > bound && allBetter(av, bv, lower):
		v.label = "improved"
	case spread > bound:
		v.label = "unresolved"
	case worse > bound:
		v.label = "regressed"
	case worse < -bound:
		v.label = "improved"
	default:
		v.label = "unchanged"
	}
	return v
}

func allBetter(av, bv []float64, lower bool) bool {
	for _, x := range av {
		for _, y := range bv {
			if (lower && y >= x) || (!lower && y <= x) {
				return false
			}
		}
	}
	return true
}

// exactVerdict labels a metric that repeats exactly for a seed from its
// same-seed pairs: regressed when any pair got worse by more than
// exactTolerance, improved when every pair got better by more.
func exactVerdict(ps [][2]record, name string, lower bool) string {
	av, bv := pairValues(ps, name)
	better := 0
	for i := range av {
		switch d := worseBy(av[i], bv[i], lower); {
		case d > exactTolerance:
			return "regressed"
		case d < -exactTolerance:
			better++
		}
	}
	if better > 0 && better == len(av) {
		return "improved"
	}
	return "unchanged"
}

// claimHolds applies the gain rule to runs paired by seed: B wins at least
// nine tenths of the pairs (ties count for neither side), the medians
// differ, in B's favour, by more than A's interquartile range, and B
// failed no larger share of its ops than A.
func claimHolds(ps [][2]record, name string, lower bool) (bool, string) {
	av, bv := pairValues(ps, name)
	n := len(av)
	if n == 0 {
		return false, "no runs paired by seed"
	}
	wins := 0
	for i := range av {
		if worseBy(av[i], bv[i], lower) < 0 {
			wins++
		}
	}
	var attA, failA, attB, failB int64
	for _, p := range ps {
		attA, failA = attA+p[0].Attempted, failA+p[0].Failed
		attB, failB = attB+p[1].Attempted, failB+p[1].Failed
	}
	fracA := float64(failA) / float64(max(attA, 1))
	fracB := float64(failB) / float64(max(attB, 1))
	q1, medA, q3 := quartiles(av)
	_, medB, _ := quartiles(bv)
	gap := medA - medB
	if !lower {
		gap = -gap
	}
	why := fmt.Sprintf("B won %d of %d pairs; median gap %.6g vs A's IQR %.6g; failed ops A %.4g, B %.4g",
		wins, n, gap, q3-q1, fracA, fracB)
	return 10*wins >= 9*n && gap > q3-q1 && fracB <= fracA, why
}

// detDiffs counts the same-seed pairs that disagree on the deterministic
// outcome.
func detDiffs(ps [][2]record) int {
	differ := 0
	for _, p := range ps {
		if diffDet(p[0].Det, p[1].Det) != "" {
			differ++
		}
	}
	return differ
}
