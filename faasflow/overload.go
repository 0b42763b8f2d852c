package faasflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
)

// This file is the public overload-control surface: front-door admission
// (token-bucket rate limit plus a concurrent-workflow cap) and
// deadline-bounded invocation. See docs/OVERLOAD.md for the knobs and the
// goodput-curve methodology behind them.

// ErrOverloaded matches (via errors.Is) every admission rejection — from
// Cluster.Admit, admission-gated App.Run accounting, and the gateway's 429
// path.
var ErrOverloaded = admission.ErrOverloaded

// OverloadError is an admission rejection: which limit fired, which tenant
// the request carried, and how long the client should wait before retrying
// (the gateway's Retry-After hint).
type OverloadError struct {
	Reason     string        // "rate" | "concurrency" | "tenant-rate" | "tenant-concurrency"
	Tenant     string        // tenant identity of the rejected request ("" = untenanted)
	RetryAfter time.Duration // suggested client backoff
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("faasflow: overloaded (%s limit, tenant %q), retry after %v",
			e.Reason, e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("faasflow: overloaded (%s limit), retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) succeed for every rejection.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// TenantConfig is one tenant's slice of the admission controller; see
// admission.TenantConfig for the derivation of zero-value fields from the
// tenant's weighted share of the global limits.
type TenantConfig struct {
	// Weight is the tenant's relative share among configured tenants
	// (0 defaults to 1). Also drives weighted-fair Acquire queueing when
	// installed through SetTenantWeights.
	Weight float64
	// RatePerSec overrides the tenant's sustained admission rate.
	RatePerSec float64
	// Burst overrides the tenant's bucket capacity.
	Burst float64
	// MaxConcurrent overrides the tenant's in-flight cap.
	MaxConcurrent int
}

// AdmissionConfig fixes the cluster's front-door limits. Zero values
// disable the corresponding limit.
type AdmissionConfig struct {
	// RatePerSec is the sustained workflow-admission rate (token bucket).
	RatePerSec float64
	// Burst is the bucket capacity; 0 defaults to max(1, RatePerSec).
	Burst float64
	// MaxConcurrent caps admitted workflows in flight.
	MaxConcurrent int
	// Tenants layers per-tenant weighted buckets and caps under the global
	// limits (see docs/TENANCY.md). Tenants outside the map pass only the
	// global gates.
	Tenants map[string]TenantConfig
}

// SetAdmission installs (or, with the zero config, effectively disables)
// front-door admission control on the cluster. Every workflow start —
// Cluster.Admit, App.Run with RunSpec.Admit, and the gateway's invoke
// endpoint — passes through it. Tenant weights in cfg.Tenants are also installed as
// the cluster's weighted-fair Acquire queueing weights.
func (c *Cluster) SetAdmission(cfg AdmissionConfig) error {
	var tenants map[string]admission.TenantConfig
	if len(cfg.Tenants) > 0 {
		tenants = make(map[string]admission.TenantConfig, len(cfg.Tenants))
		weights := make(map[string]float64, len(cfg.Tenants))
		for name, tc := range cfg.Tenants {
			tenants[name] = admission.TenantConfig{
				Weight:        tc.Weight,
				RatePerSec:    tc.RatePerSec,
				Burst:         tc.Burst,
				MaxConcurrent: tc.MaxConcurrent,
			}
			w := tc.Weight
			if w == 0 {
				w = 1
			}
			weights[name] = w
		}
		c.tb.SetTenantWeights(weights)
	}
	ctl, err := admission.New(c.tb.Env, admission.Config{
		RatePerSec:    cfg.RatePerSec,
		Burst:         cfg.Burst,
		MaxConcurrent: cfg.MaxConcurrent,
		Tenants:       tenants,
	})
	if err != nil {
		return err
	}
	ctl.SetBus(c.tb.Bus())
	c.adm = ctl
	return nil
}

// SetTenantWeights installs relative tenant weights for weighted-fair
// Acquire queueing on every worker node, independent of admission control.
func (c *Cluster) SetTenantWeights(weights map[string]float64) {
	c.tb.SetTenantWeights(weights)
}

// Admit asks the admission controller for one workflow start. On success
// it returns a release closure the caller must invoke when the workflow
// finishes; on overload it returns an *OverloadError matching
// ErrOverloaded. With no controller installed everything is admitted.
func (c *Cluster) Admit(workflow string) (release func(), err error) {
	if err := c.adm.Admit(workflow); err != nil {
		var ae *admission.Error
		if errors.As(err, &ae) {
			return nil, &OverloadError{Reason: ae.Reason, RetryAfter: ae.RetryAfter}
		}
		return nil, err
	}
	if c.adm == nil {
		return func() {}, nil
	}
	return c.adm.Release, nil
}

// AdmitTenant is Admit with tenant attribution: the request passes both the
// global gates and the tenant's weighted slice, the returned release
// closure is idempotent, and a rejection's OverloadError names the tenant.
func (c *Cluster) AdmitTenant(workflow, tenant string) (release func(), err error) {
	release, err = c.adm.AdmitTenant(workflow, tenant)
	if err != nil {
		var ae *admission.Error
		if errors.As(err, &ae) {
			return nil, &OverloadError{Reason: ae.Reason, Tenant: ae.Tenant, RetryAfter: ae.RetryAfter}
		}
		return nil, err
	}
	return release, nil
}

// AdmissionLive reports admitted workflows currently in flight — the
// Admit/Release pairing invariant surface: it must return to 0 once every
// started workflow has finished (0 without a controller installed).
func (c *Cluster) AdmissionLive() int { return c.adm.Live() }

// AdmissionStats reports the controller's lifetime decision counters.
type AdmissionStats struct {
	Admitted            int64
	RejectedRate        int64
	RejectedConcurrency int64
}

// Rejected sums rejections across reasons.
func (s AdmissionStats) Rejected() int64 { return s.RejectedRate + s.RejectedConcurrency }

// AdmissionStats reports the cluster's admission counters (zero without a
// controller installed).
func (c *Cluster) AdmissionStats() AdmissionStats {
	st := c.adm.Stats()
	return AdmissionStats{
		Admitted:            st.Admitted,
		RejectedRate:        st.RejectedRate,
		RejectedConcurrency: st.RejectedConcurrency,
	}
}

// TenantAdmissionStats is one tenant's slice of the admission counters,
// with the tenant's weight and effective limits echoed alongside.
type TenantAdmissionStats struct {
	Tenant              string  `json:"tenant"`
	Weight              float64 `json:"weight"`
	RatePerSec          float64 `json:"ratePerSec"`
	MaxConcurrent       int     `json:"maxConcurrent"`
	Live                int     `json:"live"`
	Admitted            int64   `json:"admitted"`
	Released            int64   `json:"released"`
	RejectedRate        int64   `json:"rejectedRate"`
	RejectedConcurrency int64   `json:"rejectedConcurrency"`
	RejectedGlobal      int64   `json:"rejectedGlobal"`
}

// TenantAdmissionStats reports per-tenant admission counters, sorted by
// tenant name (nil without a controller installed).
func (c *Cluster) TenantAdmissionStats() []TenantAdmissionStats {
	stats := c.adm.TenantStats()
	if len(stats) == 0 {
		return nil
	}
	out := make([]TenantAdmissionStats, 0, len(stats))
	for _, st := range stats {
		out = append(out, TenantAdmissionStats{
			Tenant:              st.Tenant,
			Weight:              st.Weight,
			RatePerSec:          st.RatePerSec,
			MaxConcurrent:       st.MaxConcurrent,
			Live:                st.Live,
			Admitted:            st.Admitted,
			Released:            st.Released,
			RejectedRate:        st.RejectedRate,
			RejectedConcurrency: st.RejectedConcurrency,
			RejectedGlobal:      st.RejectedGlobal,
		})
	}
	return out
}
