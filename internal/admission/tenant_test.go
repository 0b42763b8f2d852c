package admission

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// advance moves the simulation clock forward by d.
func advance(env *sim.Env, d time.Duration) {
	env.Schedule(d, func() {})
	env.Run()
}

func TestTenantWeightedShares(t *testing.T) {
	a, err := New(sim.NewEnv(), Config{
		RatePerSec:    10,
		MaxConcurrent: 10,
		Tenants: map[string]TenantConfig{
			"small": {Weight: 1},
			"big":   {Weight: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := a.TenantStats()
	if len(stats) != 2 {
		t.Fatalf("got %d tenant stats, want 2", len(stats))
	}
	big, small := stats[0], stats[1]
	if big.Tenant != "big" || small.Tenant != "small" {
		t.Fatalf("stats not sorted by tenant: %q, %q", big.Tenant, small.Tenant)
	}
	if small.RatePerSec != 2.5 || big.RatePerSec != 7.5 {
		t.Fatalf("derived rates = %v/%v, want 2.5/7.5", small.RatePerSec, big.RatePerSec)
	}
	// ceil(10 * 1/4) = 3, ceil(10 * 3/4) = 8.
	if small.MaxConcurrent != 3 || big.MaxConcurrent != 8 {
		t.Fatalf("derived caps = %d/%d, want 3/8", small.MaxConcurrent, big.MaxConcurrent)
	}
}

func TestTenantOverridesBeatDerivation(t *testing.T) {
	a, err := New(sim.NewEnv(), Config{
		RatePerSec:    100,
		MaxConcurrent: 100,
		Tenants: map[string]TenantConfig{
			"t": {RatePerSec: 1, Burst: 1, MaxConcurrent: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := a.TenantStats()[0]
	if st.RatePerSec != 1 || st.MaxConcurrent != 2 {
		t.Fatalf("overrides not applied: %+v", st)
	}
}

func TestTenantRateClipsNoisyNeighbor(t *testing.T) {
	env := sim.NewEnv()
	a, err := New(env, Config{
		RatePerSec: 100,
		Tenants: map[string]TenantConfig{
			"noisy": {RatePerSec: 1, Burst: 1},
			"quiet": {RatePerSec: 1, Burst: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdmitTenant("wf", "noisy"); err != nil {
		t.Fatalf("first noisy admit rejected: %v", err)
	}
	_, err = a.AdmitTenant("wf", "noisy")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("noisy over-rate admit succeeded (err=%v)", err)
	}
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Reason != "tenant-rate" || aerr.Tenant != "noisy" {
		t.Fatalf("rejection = %#v, want tenant-rate for noisy", err)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", aerr.RetryAfter)
	}
	// The noisy tenant draining its own bucket must not touch quiet's.
	if _, err := a.AdmitTenant("wf", "quiet"); err != nil {
		t.Fatalf("quiet tenant rejected after noisy overload: %v", err)
	}
	st := a.TenantStats()
	for _, s := range st {
		switch s.Tenant {
		case "noisy":
			if s.Admitted != 1 || s.RejectedRate != 1 {
				t.Fatalf("noisy stats = %+v, want 1 admitted / 1 rate-rejected", s)
			}
		case "quiet":
			if s.Admitted != 1 || s.RejectedRate != 0 {
				t.Fatalf("quiet stats = %+v, want 1 admitted / 0 rejected", s)
			}
		}
	}
}

func TestTenantConcurrencyCapAndRelease(t *testing.T) {
	env := sim.NewEnv()
	a, err := New(env, Config{
		MaxConcurrent: 10,
		Tenants:       map[string]TenantConfig{"t": {MaxConcurrent: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	release, err := a.AdmitTenant("wf", "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.AdmitTenant("wf", "t")
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Reason != "tenant-concurrency" || aerr.Tenant != "t" {
		t.Fatalf("rejection = %#v, want tenant-concurrency for t", err)
	}
	if a.tenants["t"].live != 1 || a.Live() != 1 {
		t.Fatalf("live = %d/%d, want 1/1", a.tenants["t"].live, a.Live())
	}
	release()
	if a.tenants["t"].live != 0 || a.Live() != 0 {
		t.Fatalf("post-release live = %d/%d, want 0/0", a.tenants["t"].live, a.Live())
	}
	// The closure is idempotent: a double release must not underflow.
	release()
	if a.Live() != 0 {
		t.Fatalf("double release moved Live to %d", a.Live())
	}
	if _, err := a.AdmitTenant("wf", "t"); err != nil {
		t.Fatalf("post-release admit rejected: %v", err)
	}
}

func TestUnconfiguredTenantPassesGlobalGatesOnly(t *testing.T) {
	a, err := New(sim.NewEnv(), Config{
		MaxConcurrent: 1,
		Tenants:       map[string]TenantConfig{"configured": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdmitTenant("wf", "adhoc"); err != nil {
		t.Fatalf("ad-hoc tenant rejected: %v", err)
	}
	// Global cap is full: the next request is rejected at the global gate
	// and the rejection is attributed to the configured tenant.
	_, err = a.AdmitTenant("wf", "configured")
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Reason != "concurrency" {
		t.Fatalf("rejection = %#v, want global concurrency", err)
	}
	var adhoc, conf TenantStats
	for _, s := range a.TenantStats() {
		switch s.Tenant {
		case "adhoc":
			adhoc = s
		case "configured":
			conf = s
		}
	}
	if adhoc.Admitted != 1 || adhoc.RatePerSec != 0 || adhoc.MaxConcurrent != 0 {
		t.Fatalf("ad-hoc stats = %+v, want 1 admitted with no tenant limits", adhoc)
	}
	if conf.RejectedGlobal != 1 || conf.RejectedConcurrency != 0 {
		t.Fatalf("configured stats = %+v, want 1 global rejection", conf)
	}
}

func TestBurstClampWithFractionalRate(t *testing.T) {
	// RatePerSec < 1 must still leave a workable bucket: Burst clamps to 1,
	// not to the fractional rate (which would reject every arrival forever).
	a, err := New(sim.NewEnv(), Config{RatePerSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Admit("wf"); err != nil {
		t.Fatalf("first admit on fractional-rate bucket rejected: %v", err)
	}
	if err := a.Admit("wf"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second immediate admit succeeded (err=%v)", err)
	}
	// Same clamp for a tenant bucket with a fractional override.
	b, err := New(sim.NewEnv(), Config{
		Tenants: map[string]TenantConfig{"slow": {RatePerSec: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AdmitTenant("wf", "slow"); err != nil {
		t.Fatalf("tenant with fractional rate rejected its first request: %v", err)
	}
	if _, err := b.AdmitTenant("wf", "slow"); !errors.Is(err, ErrOverloaded) {
		t.Fatal("tenant bucket past its clamped burst admitted")
	}
}

func TestRefillCapsAcrossLargeTimeJump(t *testing.T) {
	env := sim.NewEnv()
	a, err := New(env, Config{
		RatePerSec: 2,
		Burst:      3,
		Tenants:    map[string]TenantConfig{"t": {RatePerSec: 2, Burst: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain both buckets.
	for i := 0; i < 3; i++ {
		if _, err := a.AdmitTenant("wf", "t"); err != nil {
			t.Fatalf("drain admit %d rejected: %v", i, err)
		}
	}
	// A week of idle virtual time must refill to burst, not accumulate.
	advance(env, 7*24*time.Hour)
	for i := 0; i < 3; i++ {
		if _, err := a.AdmitTenant("wf", "t"); err != nil {
			t.Fatalf("post-jump admit %d rejected: %v", i, err)
		}
	}
	if _, err := a.AdmitTenant("wf", "t"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit past burst after time jump succeeded (err=%v)", err)
	}
}

func TestConcurrencyRetryFromHoldEWMA(t *testing.T) {
	env := sim.NewEnv()
	a, err := New(env, Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Before any completed hold the retry hint is the fixed fallback.
	release, err := a.AdmitTenant("wf", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.AdmitTenant("wf", "")
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.RetryAfter != time.Second {
		t.Fatalf("pre-sample retry = %v, want the 1s fallback", err)
	}
	advance(env, 2*time.Second)
	release()
	// With one slot live again, the concurrency retry hint is meanHold/live.
	release2, err := a.AdmitTenant("wf", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.AdmitTenant("wf", "")
	if !errors.As(err, &aerr) || aerr.RetryAfter != 2*time.Second {
		t.Fatalf("retry after first sample = %v, want the 2s EWMA", err)
	}
	// Second hold of 4s folds in at alpha=0.2: 0.8*2s + 0.2*4s = 2.4s.
	advance(env, 4*time.Second)
	release2()
	if _, err := a.AdmitTenant("wf", ""); err != nil {
		t.Fatal(err)
	}
	_, err = a.AdmitTenant("wf", "")
	if !errors.As(err, &aerr) || aerr.RetryAfter != 2400*time.Millisecond {
		t.Fatalf("EWMA retry = %v, want 2.4s", err)
	}
}

func TestPlainAdmitReleaseFeedsEWMA(t *testing.T) {
	env := sim.NewEnv()
	a, err := New(env, Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Closure-less Admit/Release pairs FIFO: the first Release observes the
	// first Admit's instant.
	if err := a.Admit("wf"); err != nil {
		t.Fatal(err)
	}
	advance(env, time.Second)
	if err := a.Admit("wf"); err != nil {
		t.Fatal(err)
	}
	advance(env, 2*time.Second)
	a.Release() // first admit: held 3s
	// Refill the freed slot: the rejection's retry hint is the 3s EWMA
	// spread across the two live workflows.
	if err := a.Admit("wf"); err != nil {
		t.Fatal(err)
	}
	var aerr *Error
	if err := a.Admit("wf"); !errors.As(err, &aerr) || aerr.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("retry = %v, want 1.5s: the oldest admit's 3s hold over 2 live", err)
	}
	a.Release()
	a.Release()
	if a.Live() != 0 {
		t.Fatalf("Live = %d after paired releases, want 0", a.Live())
	}
}
