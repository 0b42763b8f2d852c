package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// randomBench builds a random DAG benchmark (forward edges only).
func randomBench(seed uint64, n int) *workloads.Benchmark {
	rng := sim.NewRand(seed)
	g := dag.New("rand")
	fns := map[string]workloads.FunctionSpec{}
	for i := 0; i < n; i++ {
		fn := fmt.Sprintf("f%d", rng.Intn(3))
		g.AddTask(fmt.Sprintf("n%d", i), fn)
		if _, ok := fns[fn]; !ok {
			fns[fn] = workloads.FunctionSpec{Name: fn, ExecSeconds: 0.01 + 0.05*rng.Float64(), MemPeak: 64 << 20}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.Connect(dag.NodeID(i), dag.NodeID(j), int64(rng.Intn(1<<18)))
			}
		}
	}
	return &workloads.Benchmark{Name: "rand", Graph: g, Functions: fns, MonolithicBytes: 1}
}

// execCounts counts exec PhaseEvents per step.
func execCounts(evs []obs.PhaseEvent) map[string]int {
	out := map[string]int{}
	for _, e := range evs {
		if e.Comp == obs.CompExec {
			out[e.Name]++
		}
	}
	return out
}

// Property: for any random DAG under either pattern, every task node
// executes exactly once per invocation (verified through its exec
// PhaseEvents) and all intermediate keys are released afterwards.
func TestEveryTaskRunsExactlyOnceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, masterMode bool) bool {
		n := int(nRaw%12) + 2
		bench := randomBench(seed, n)
		mode := ModeWorkerSP
		if masterMode {
			mode = ModeMasterSP
		}
		rt := rig(3, network.MBps(50))
		place := placeRoundRobin(bench, "w0", "w1", "w2")
		d, err := NewDeployment(rt, bench, place, Options{Mode: mode, Data: DataStore})
		if err != nil {
			return false
		}
		evs := recordPhases(d)
		leaked := watchRemote(rt)
		completed := false
		d.Invoke(func(Result) { completed = true })
		rt.Env.Run()
		if !completed {
			return false
		}
		execs := execCounts(*evs)
		if len(execs) != n {
			return false
		}
		for _, c := range execs {
			if c != 1 {
				return false
			}
		}
		return len(leaked()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: both patterns produce the same execution set (they differ in
// when, never in what) — same nodes, same per-node exec counts.
func TestPatternsExecuteSameWorkProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		execSet := func(mode Mode) map[string]int {
			bench := randomBench(seed, n)
			rt := rig(2, network.MBps(50))
			d, err := NewDeployment(rt, bench, placeRoundRobin(bench, "w0", "w1"), Options{Mode: mode, Data: DataStore})
			if err != nil {
				return nil
			}
			evs := recordPhases(d)
			d.Invoke(nil)
			rt.Env.Run()
			return execCounts(*evs)
		}
		w, m := execSet(ModeWorkerSP), execSet(ModeMasterSP)
		if w == nil || m == nil || len(w) != len(m) {
			return false
		}
		for k, v := range w {
			if m[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: invocation latency is never below the critical-path execution
// time, with jitter disabled, for any random DAG and pattern.
func TestLatencyLowerBoundProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, masterMode bool) bool {
		n := int(nRaw%10) + 2
		bench := randomBench(seed, n)
		mode := ModeWorkerSP
		if masterMode {
			mode = ModeMasterSP
		}
		rt := rig(3, network.MBps(50))
		d, err := NewDeployment(rt, bench, placeRoundRobin(bench, "w0", "w1", "w2"),
			Options{Mode: mode, Data: DataStore, NoJitter: true})
		if err != nil {
			return false
		}
		var lat float64
		d.Invoke(func(r Result) { lat = r.Latency().Seconds() })
		rt.Env.Run()
		return lat >= d.CriticalExecSeconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
