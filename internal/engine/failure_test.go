package engine

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/workloads"
)

// TestExhaustedRetriesFailButDrain: a task timeout shorter than every
// task re-issues the source until its budget runs out; the invocation
// must then drain with Failed set instead of hanging, leaving no work
// behind.
func TestExhaustedRetriesFailButDrain(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, TaskTimeout: 50 * time.Millisecond, MaxReissues: 2})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		got := false
		d.Invoke(func(r Result) { res = r; got = true })
		rt.Env.Run()
		if !got {
			t.Fatalf("%v: exhausted invocation hung instead of draining", mode)
		}
		if !res.Failed {
			t.Fatalf("%v: Result.Failed = false after the re-issue budget ran out", mode)
		}
		if fs := d.FailureStatsSnapshot(); fs.Timeouts == 0 || fs.ReissuesExhausted == 0 {
			t.Fatalf("%v: failure stats = %+v, want timeouts and an exhausted step", mode, fs)
		}
		checkNoResidualWork(t, rt)
	}
}

// slowSinkBench is miniBench with a sink that outlives a 300 ms task
// timeout: a, b and c complete and write their outputs, d never does.
func slowSinkBench() *workloads.Benchmark {
	b := miniBench()
	fd := b.Functions["fd"]
	fd.ExecSeconds = 0.5
	b.Functions["fd"] = fd
	return b
}

// TestFailureKeepsStoreClean: invocations that fail after some steps
// wrote their outputs must still release every key, in both tiers. The
// source's stale attempts are still storing when the sink's failure
// finishes the invocation.
func TestFailureKeepsStoreClean(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt, mems := rigMems(2, network.MBps(50))
		b := slowSinkBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, NoJitter: true, TaskTimeout: 300 * time.Millisecond, MaxReissues: 1})
		if err != nil {
			t.Fatal(err)
		}
		leaked := watchRemote(rt)
		failed := 0
		for i := 0; i < 10; i++ {
			d.Invoke(func(r Result) {
				if r.Failed {
					failed++
				}
			})
		}
		rt.Env.Run()
		if failed != 10 {
			t.Fatalf("%v: %d/10 invocations failed; want all", mode, failed)
		}
		if rt.Store.Remote().Stats().Puts == 0 {
			t.Fatalf("%v: no remote writes before the failures", mode)
		}
		if keys := leaked(); len(keys) != 0 {
			t.Fatalf("%v: %d keys leaked across failing invocations: %v", mode, len(keys), keys)
		}
		for w, m := range mems {
			if used := m.Used(); used != 0 {
				t.Fatalf("%v: worker %s memory not reclaimed: %d bytes", mode, w, used)
			}
		}
	}
}
