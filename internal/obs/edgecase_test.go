package obs

import (
	"strings"
	"testing"
)

// Summarize over zero invocations must return a usable zero value whose
// rendering does not divide by zero.
func TestSummarizeZeroInvocations(t *testing.T) {
	for _, bds := range [][]*Breakdown{nil, {}} {
		s := Summarize(bds)
		if s.Count != 0 || s.MeanTotal != 0 {
			t.Fatalf("Summarize(%v) = %+v, want zero", bds, s)
		}
		if s.Mean == nil {
			t.Fatal("Summarize returned nil Mean map")
		}
		// String() percentages divide by MeanTotal; must be guarded.
		_ = s.String()
	}
}

// Snapshots with disjoint utilization metric families must report the
// added and removed families explicitly, in both directions.
func TestDiffDisjointMetricFamilies(t *testing.T) {
	oldS := &Snapshot{Version: SnapshotVersion, Utilization: []ResourceSummary{
		{Name: "node:w0:cpu", Kind: KindCPU},
		{Name: "link:master:egress", Kind: KindLink},
	}}
	newS := &Snapshot{Version: SnapshotVersion, Utilization: []ResourceSummary{
		{Name: "node:w0:cpu", Kind: KindCPU},
		{Name: "queue:gen-prep", Kind: KindQueue},
	}}
	res := Diff(oldS, newS, DiffOptions{})
	if len(res.AddedFamilies) != 1 || res.AddedFamilies[0] != "queue:gen-prep" {
		t.Fatalf("added = %v, want [queue:gen-prep]", res.AddedFamilies)
	}
	if len(res.RemovedFamilies) != 1 || res.RemovedFamilies[0] != "link:master:egress" {
		t.Fatalf("removed = %v, want [link:master:egress]", res.RemovedFamilies)
	}
	out := res.String()
	if !strings.Contains(out, "metric family queue:gen-prep: only in new snapshot") ||
		!strings.Contains(out, "metric family link:master:egress: only in old snapshot") {
		t.Fatalf("render missing family report:\n%s", out)
	}
	// Families never gate.
	if res.Regressions != 0 {
		t.Fatalf("family difference counted as regression: %+v", res)
	}

	// Reverse direction swaps the lists.
	rev := Diff(newS, oldS, DiffOptions{})
	if len(rev.AddedFamilies) != 1 || rev.AddedFamilies[0] != "link:master:egress" {
		t.Fatalf("reverse added = %v", rev.AddedFamilies)
	}
	if len(rev.RemovedFamilies) != 1 || rev.RemovedFamilies[0] != "queue:gen-prep" {
		t.Fatalf("reverse removed = %v", rev.RemovedFamilies)
	}
}

// ForWorkflow on a name the log never saw must return an empty, fully
// usable log — not nil — so downstream analysis degrades to zero results.
func TestForWorkflowUnknownName(t *testing.T) {
	l := NewTraceLog()
	l.Record(InvocationEvent{Workflow: "known", Inv: 1, End: true})
	l.Record(StepEvent{Workflow: "known", Inv: 1})

	sub := l.ForWorkflow("no-such-workflow")
	if sub == nil {
		t.Fatal("ForWorkflow returned nil")
	}
	if sub.Len() != 0 {
		t.Fatalf("unknown workflow has %d events", sub.Len())
	}
	if wfs := sub.Workflows(); len(wfs) != 0 {
		t.Fatalf("unknown workflow lists workflows %v", wfs)
	}
	// Analysis over the empty sub-log must yield zero breakdowns, and the
	// zero-invocation summary must render safely.
	bds := AnalyzeAll(sub)
	if len(bds) != 0 {
		t.Fatalf("empty log produced %d breakdowns", len(bds))
	}
	_ = Summarize(bds).String()
}
