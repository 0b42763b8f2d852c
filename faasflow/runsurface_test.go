package faasflow

import (
	"fmt"
	"testing"
	"time"
)

// statsLine renders the latency half of Stats in a fixed format, so the
// golden values below compare exact durations.
func statsLine(s Stats) string {
	return fmt.Sprintf("count=%d mean=%v p50=%v p99=%v max=%v timeouts=%v",
		s.Count, s.Mean, s.P50, s.P99, s.Max, s.Timeouts)
}

func goldenDeploy(t *testing.T, c *Cluster, bench string, o DeployOptions) *App {
	t.Helper()
	app, err := c.Deploy(Benchmark(bench), o)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestRunSurfaceGolden pins the statistics of every traffic shape on fixed
// seeds: closed loop with and without warm-up, per-invocation options,
// fixed-rate and Poisson open loop, admission-gated arrivals, the
// federation router, and co-location. Two batches in a row on one app
// pin the drain between batches too.
func TestRunSurfaceGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) []string
		want []string
	}{
		{"closed", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(7)), "Gen", DeployOptions{})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 10, Warmup: 1}))}
		}, []string{
			"count=10 mean=8.8781808s p50=8.810608994s p99=9.360888719s max=9.360888719s timeouts=0",
		}},
		{"closed then open", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(3)), "IR", DeployOptions{Mode: MasterSP})
			a := mustRun(t, app, RunSpec{N: 3, Warmup: 1})
			b := mustRun(t, app, RunSpec{N: 5, PerMinute: 6, Warmup: 1})
			return []string{statsLine(a), statsLine(b)}
		}, []string{
			"count=3 mean=1.659598299s p50=1.676099744s p99=1.713347246s max=1.713347246s timeouts=0",
			"count=5 mean=1.82982463s p50=1.54576134s p99=3.092317862s max=3.092317862s timeouts=0",
		}},
		{"options", func(t *testing.T) []string {
			c := NewCluster(WithSeed(5))
			c.SetTenantWeights(map[string]float64{"gold": 3})
			app := goldenDeploy(t, c, "Vid", DeployOptions{})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 5, Invoke: InvokeOptions{Tenant: "gold", Deadline: 3 * time.Second}}))}
		}, []string{
			"count=5 mean=3.353819786s p50=3.393422717s p99=3.649469358s max=3.649469358s timeouts=0",
		}},
		{"open loop", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(11)), "IR", DeployOptions{})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 20, PerMinute: 12, Warmup: 1}))}
		}, []string{
			"count=20 mean=1.555156003s p50=1.46347454s p99=3.193812944s max=3.193812944s timeouts=0",
		}},
		{"open loop past the deadline", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(29), WithFaaStore(false), WithStorageBandwidthMBps(10)), "Gen", DeployOptions{Mode: MasterSP})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 12, PerMinute: 20, Warmup: 1}))}
		}, []string{
			"count=12 mean=58.984833402s p50=1m0s p99=1m0s max=1m0s timeouts=0.9166666666666666",
		}},
		{"poisson", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(13)), "WC", DeployOptions{})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 15, PerMinute: 30, Poisson: true, Seed: 42, Warmup: 1}))}
		}, []string{
			"count=15 mean=1.729052027s p50=1.562903913s p99=3.138998386s max=3.138998386s timeouts=0",
		}},
		{"admitted", func(t *testing.T) []string {
			c := NewCluster(WithSeed(17))
			if err := c.SetAdmission(AdmissionConfig{RatePerSec: 2, MaxConcurrent: 4}); err != nil {
				t.Fatal(err)
			}
			app := goldenDeploy(t, c, "WC", DeployOptions{})
			st := mustRun(t, app, RunSpec{N: 40, PerMinute: 300, Invoke: InvokeOptions{Deadline: 3 * time.Second}, Admit: true})
			a := st.Admission
			return []string{statsLine(st), fmt.Sprintf("offered=%d admitted=%d rejected=%d goodput=%d deadlined=%d failed=%d",
				a.Offered, a.Admitted, a.Rejected, a.Goodput, a.Deadlined, a.Failed)}
		}, []string{
			"count=5 mean=2.410921224s p50=2.428103733s p99=2.615360287s max=2.615360287s timeouts=0",
			"offered=40 admitted=12 rejected=28 goodput=5 deadlined=7 failed=0",
		}},
		{"federated", func(t *testing.T) []string {
			app := goldenDeploy(t, NewCluster(WithSeed(19)), "IR", DeployOptions{Federation: &FederationOptions{}})
			return []string{statsLine(mustRun(t, app, RunSpec{N: 6}))}
		}, []string{
			"count=6 mean=1.78348158s p50=1.517061107s p99=3.114210136s max=3.114210136s timeouts=0",
		}},
		{"co-located", func(t *testing.T) []string {
			c := NewCluster(WithSeed(23))
			spec := RunSpec{N: 5, Warmup: 1}
			sts, err := c.Run(Batch{goldenDeploy(t, c, "Gen", DeployOptions{}), spec}, Batch{goldenDeploy(t, c, "Vid", DeployOptions{}), spec})
			if err != nil {
				t.Fatal(err)
			}
			return []string{statsLine(sts[0]), statsLine(sts[1])}
		}, []string{
			"count=5 mean=9.087575812s p50=9.236990692s p99=9.360888719s max=9.360888719s timeouts=0",
			"count=5 mean=4.392899494s p50=3.83369446s p99=5.557850067s max=5.557850067s timeouts=0",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d lines, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %s\nwant %s", i, got[i], tc.want[i])
				}
			}
		})
	}
}
