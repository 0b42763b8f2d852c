package faasflow

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRunAdmittedNeverLeaksSlots is the Admit/Release pairing regression:
// after an open-loop run where arrivals are rejected, deadlined, and
// completed, every admitted workflow must have returned its slot.
func TestRunAdmittedNeverLeaksSlots(t *testing.T) {
	c := NewCluster(WithSeed(7))
	if err := c.SetAdmission(AdmissionConfig{RatePerSec: 0.5, MaxConcurrent: 4}); err != nil {
		t.Fatal(err)
	}
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, app, RunSpec{N: 40, PerMinute: 300, Invoke: InvokeOptions{Deadline: 2 * time.Second}, Admit: true})
	if st.Admission.Admitted == 0 || st.Admission.Rejected == 0 {
		t.Fatalf("test load not mixed: %+v", *st.Admission)
	}
	if live := c.AdmissionLive(); live != 0 {
		t.Fatalf("AdmissionLive = %d after the run, want 0 (leaked slots)", live)
	}
}

// TestTenantAdmissionRoundTrip drives tenant-attributed runs through the
// public surface: SetAdmission with tenants, AdmitTenant plus a
// tenant-labelled App.Run per batch, and per-tenant stats afterwards —
// with no slot leaked.
func TestTenantAdmissionRoundTrip(t *testing.T) {
	c := NewCluster(WithSeed(7))
	err := c.SetAdmission(AdmissionConfig{
		RatePerSec:    100,
		MaxConcurrent: 8,
		Tenants: map[string]TenantConfig{
			"gold":   {Weight: 3},
			"bronze": {Weight: 1, RatePerSec: 1, Burst: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	release, err := c.AdmitTenant("IR", "gold")
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, app, RunSpec{N: 2, Invoke: InvokeOptions{Tenant: "gold"}})
	release()
	if st.Count != 2 {
		t.Fatalf("tenant run stats = %+v, want 2 completions", st)
	}
	// bronze's burst-1 bucket rejects its second immediate request.
	r1, err := c.AdmitTenant("IR", "bronze")
	if err != nil {
		t.Fatal(err)
	}
	r1()
	_, err = c.AdmitTenant("IR", "bronze")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("bronze over-rate admit = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "tenant-rate" || oe.Tenant != "bronze" {
		t.Fatalf("rejection = %+v, want tenant-rate for bronze", err)
	}
	if live := c.AdmissionLive(); live != 0 {
		t.Fatalf("AdmissionLive = %d, want 0", live)
	}
	var gold, bronze TenantAdmissionStats
	for _, s := range c.TenantAdmissionStats() {
		switch s.Tenant {
		case "gold":
			gold = s
		case "bronze":
			bronze = s
		}
	}
	if gold.Admitted != 1 || gold.Released != 1 || gold.Weight != 3 {
		t.Fatalf("gold stats = %+v", gold)
	}
	if bronze.Admitted != 1 || bronze.RejectedRate != 1 {
		t.Fatalf("bronze stats = %+v", bronze)
	}
	// Queue-side tenancy surfaced too: the tenanted App.Run invocations
	// left per-tenant grant counters on the worker nodes.
	grants := int64(0)
	for _, q := range c.TenantQueueStats() {
		if q.Tenant == "gold" {
			grants += q.Grants
		}
	}
	if grants == 0 {
		t.Fatal("no tenant-attributed container grants recorded")
	}
}

// TestOverloadErrorSurvivesWrapping pins the satellite contract: a
// rejection wrapped by intermediate layers (as the gateway does with
// fmt.Errorf) still matches ErrOverloaded via errors.Is and recovers the
// typed *OverloadError via errors.As.
func TestOverloadErrorSurvivesWrapping(t *testing.T) {
	c := NewCluster()
	if err := c.SetAdmission(AdmissionConfig{
		Tenants: map[string]TenantConfig{"t": {MaxConcurrent: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitTenant("wf", "t"); err != nil {
		t.Fatal(err)
	}
	_, err := c.AdmitTenant("wf", "t")
	if err == nil {
		t.Fatal("over-cap admit succeeded")
	}
	wrapped := fmt.Errorf("gateway: invoking workflow: %w", fmt.Errorf("dispatch: %w", err))
	if !errors.Is(wrapped, ErrOverloaded) {
		t.Fatalf("errors.Is failed through two wraps: %v", wrapped)
	}
	var oe *OverloadError
	if !errors.As(wrapped, &oe) {
		t.Fatalf("errors.As failed through two wraps: %v", wrapped)
	}
	if oe.Reason != "tenant-concurrency" || oe.Tenant != "t" {
		t.Fatalf("recovered error = %+v", oe)
	}
}
