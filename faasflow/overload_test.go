package faasflow

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSetAdmissionValidates(t *testing.T) {
	c := NewCluster()
	if err := c.SetAdmission(AdmissionConfig{RatePerSec: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := c.SetAdmission(AdmissionConfig{MaxConcurrent: -1}); err == nil {
		t.Fatal("negative concurrency cap accepted")
	}
	if err := c.SetAdmission(AdmissionConfig{RatePerSec: 10, MaxConcurrent: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitWithoutControllerAdmitsEverything(t *testing.T) {
	c := NewCluster()
	for i := 0; i < 100; i++ {
		release, err := c.Admit("wf")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	if st := c.AdmissionStats(); st != (AdmissionStats{}) {
		t.Fatalf("stats without controller = %+v", st)
	}
}

func TestAdmitRejectsOverConcurrency(t *testing.T) {
	c := NewCluster()
	if err := c.SetAdmission(AdmissionConfig{MaxConcurrent: 2}); err != nil {
		t.Fatal(err)
	}
	r1, err1 := c.Admit("wf")
	_, err2 := c.Admit("wf")
	if err1 != nil || err2 != nil {
		t.Fatalf("first two admits failed: %v, %v", err1, err2)
	}
	_, err3 := c.Admit("wf")
	if err3 == nil {
		t.Fatal("third admit over cap succeeded")
	}
	if !errors.Is(err3, ErrOverloaded) {
		t.Fatalf("rejection %v does not match ErrOverloaded", err3)
	}
	var oe *OverloadError
	if !errors.As(err3, &oe) {
		t.Fatalf("rejection %T is not *OverloadError", err3)
	}
	if oe.Reason != "concurrency" || oe.RetryAfter <= 0 {
		t.Fatalf("rejection = %+v", oe)
	}
	if !strings.Contains(oe.Error(), "concurrency") {
		t.Fatalf("error text %q", oe.Error())
	}
	// Releasing one slot reopens the door.
	r1()
	r4, err4 := c.Admit("wf")
	if err4 != nil {
		t.Fatalf("admit after release: %v", err4)
	}
	r4()
	st := c.AdmissionStats()
	if st.Admitted != 3 || st.RejectedConcurrency != 1 || st.Rejected() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunAdmittedAccountsEveryArrival(t *testing.T) {
	c := NewCluster(WithSeed(7))
	if err := c.SetAdmission(AdmissionConfig{RatePerSec: 0.5, MaxConcurrent: 4}); err != nil {
		t.Fatal(err)
	}
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	// 10x the admitted rate: most arrivals must be turned away, the rest
	// finish inside the deadline.
	st := mustRun(t, app, RunSpec{N: 40, PerMinute: 300, Invoke: InvokeOptions{Deadline: 30 * time.Second}, Admit: true})
	if st.Admission.Offered != 40 {
		t.Fatalf("offered = %d", st.Admission.Offered)
	}
	if st.Admission.Admitted+st.Admission.Rejected != st.Admission.Offered {
		t.Fatalf("admitted %d + rejected %d != offered %d", st.Admission.Admitted, st.Admission.Rejected, st.Admission.Offered)
	}
	if st.Admission.Rejected == 0 {
		t.Fatal("10x overload rejected nothing")
	}
	if st.Admission.Goodput+st.Admission.Deadlined+st.Admission.Failed != st.Admission.Admitted {
		t.Fatalf("outcomes %d+%d+%d != admitted %d", st.Admission.Goodput, st.Admission.Deadlined, st.Admission.Failed, st.Admission.Admitted)
	}
	if st.Admission.Goodput == 0 {
		t.Fatal("no goodput at all")
	}
	if st.Count != st.Admission.Goodput {
		t.Fatalf("latency samples %d != goodput %d", st.Count, st.Admission.Goodput)
	}
	if st.P99 > 30*time.Second {
		t.Fatalf("goodput P99 %v exceeds the deadline", st.P99)
	}
}

func TestRunAdmittedDeadlineBoundsResidency(t *testing.T) {
	c := NewCluster(WithSeed(7))
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	// No admission, saturating arrivals, and a deadline shorter than the
	// queueing delay this load builds: late arrivals must be cut off rather
	// than run to completion long after their budget.
	st := mustRun(t, app, RunSpec{N: 120, PerMinute: 1200, Invoke: InvokeOptions{Deadline: 4 * time.Second}, Admit: true})
	if st.Admission.Rejected != 0 {
		t.Fatalf("no controller installed but %d rejected", st.Admission.Rejected)
	}
	if st.Admission.Deadlined == 0 {
		t.Fatal("saturating load with a tight deadline deadlined nothing")
	}
	if st.Admission.Goodput+st.Admission.Deadlined+st.Admission.Failed != st.Admission.Admitted {
		t.Fatalf("outcomes %d+%d+%d != admitted %d", st.Admission.Goodput, st.Admission.Deadlined, st.Admission.Failed, st.Admission.Admitted)
	}
}
