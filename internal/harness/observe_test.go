package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// tracedRun assembles one testbed with a trace log attached, runs the
// benchmark closed-loop, and returns the log plus the testbed for fabric
// counter cross-checks.
func tracedRun(t *testing.T, sys System, bench string, invocations int, storageBW network.Bandwidth) (*obs.TraceLog, *Testbed) {
	t.Helper()
	tb := newSystemTestbed(sys, storageBW)
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	tb.AttachBus(bus)
	d, err := tb.deploySystem(sys, workloads.ByName(bench), engine.DataStore)
	if err != nil {
		t.Fatal(err)
	}
	tb.Drive(Client{Target: d.Invoke, N: invocations})
	return log, tb
}

// TestUtilizationInvariants checks the analyzer against ground truth the
// fabric keeps independently: every occupancy is a fraction, every link
// timeline integrates to its byte counter, and summed egress bytes equal
// the fabric's total (each transfer crosses exactly one egress link).
func TestUtilizationInvariants(t *testing.T) {
	log, tb := tracedRun(t, FaaSFlowFaaStore, "Gen", 5, network.MBps(50))
	u := obs.ComputeUtilization(log)
	if u.InFlightFlows != 0 {
		t.Fatalf("run did not drain: %d flows in flight", u.InFlightFlows)
	}
	sums := u.Summaries()
	if len(sums) == 0 {
		t.Fatal("no resources observed")
	}
	var egressBytes int64
	for _, s := range sums {
		if s.BusyFrac < 0 || s.BusyFrac > 1 || s.MeanOcc < 0 || s.MeanOcc > 1 ||
			s.PeakOcc < 0 || s.PeakOcc > 1 {
			t.Errorf("%s occupancy out of [0,1]: %+v", s.Name, s)
		}
		if s.Kind != obs.KindLink {
			continue
		}
		r := u.Resources[s.Name]
		got := r.Series.Integral(u.Start, u.End)
		if want := float64(r.FlowBytes); math.Abs(got-want) > 1e-6*math.Max(want, 1) {
			t.Errorf("%s integral %v != flow bytes %d", s.Name, got, r.FlowBytes)
		}
		if strings.HasSuffix(s.Name, ":egress") {
			egressBytes += r.Bytes
		}
	}
	if total := tb.Fabric.Stats().TotalBytes; egressBytes != total {
		t.Fatalf("egress link bytes %d != fabric total %d", egressBytes, total)
	}
	// Per-node core/mem/container resources must exist for every worker.
	for _, w := range tb.Workers {
		for _, kind := range []string{"cpu", "mem", "containers"} {
			if u.Resources["node:"+w+":"+kind] == nil {
				t.Errorf("missing resource node:%s:%s", w, kind)
			}
		}
	}
}

// TestBottleneckStorageThrottle reproduces the paper's motivating claim:
// with storage bandwidth throttled hard, the master-side pattern funnels
// every intermediate through the storage node, so its end-to-end dominant
// bottleneck sits on the master link — while WorkerSP+FaaStore keeps data
// local and is dominated by something else.
func TestBottleneckStorageThrottle(t *testing.T) {
	dominant := func(sys System) obs.Hotspot {
		log, _ := tracedRun(t, sys, "Vid", 3, network.MBps(5))
		ibs := obs.AttributeBottlenecks(log)
		sums := obs.SummarizeBottlenecks(ibs)
		if len(sums) != 1 || len(sums[0].Hotspots) == 0 {
			t.Fatalf("%s: %d bottleneck groups; want 1 with hotspots", sys, len(sums))
		}
		return sums[0].Hotspots[0]
	}
	master := dominant(HyperFlow)
	if !strings.Contains(master.Resource, "link:master") {
		t.Errorf("MasterSP dominant = %+v; want the storage link", master)
	}
	worker := dominant(FaaSFlowFaaStore)
	if strings.Contains(worker.Resource, "link:master") {
		t.Errorf("WorkerSP+FaaStore dominant = %+v; want anything but the storage link", worker)
	}
}

// TestRunSnapshotDeterministic is the property the CI regression gate
// stands on: same binary, same inputs, byte-identical snapshot.
func TestRunSnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		s, err := RunSnapshot(FaaSFlowFaaStore, []string{"Gen"}, 5, network.MBps(50), map[string]string{"system": "x"})
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("back-to-back snapshots differ")
	}
	// And the diff engine agrees: identical runs gate clean.
	s1, _ := obs.ParseSnapshot(a)
	s2, _ := obs.ParseSnapshot(b)
	if res := obs.Diff(s1, s2, obs.DiffOptions{}); res.Regressions != 0 {
		t.Fatalf("identical runs flagged: %+v", res)
	}
}

// TestSnapshotDiffFlagsThrottledRun drives the end-to-end CI story: a run
// against throttled storage must show up as a latency regression relative
// to the healthy baseline.
func TestSnapshotDiffFlagsThrottledRun(t *testing.T) {
	healthy, err := RunSnapshot(HyperFlow, []string{"Gen"}, 3, network.MBps(50), nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunSnapshot(HyperFlow, []string{"Gen"}, 3, network.MBps(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := obs.Diff(healthy, slow, obs.DiffOptions{})
	if res.Regressions == 0 {
		t.Fatalf("10x storage throttle not flagged:\n%s", res.String())
	}
}
