package engine

import (
	"testing"

	"repro/internal/network"
)

func TestNoFailuresByDefault(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed without injection")
	}
	if st := d.FailureStatsSnapshot(); st.Crashes != 0 || st.Retries != 0 {
		t.Fatalf("crashes=%d retries=%d without injection", st.Crashes, st.Retries)
	}
}

func TestRetriesRecoverFromCrashes(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore, FailureRate: 0.3, MaxAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	succeeded, failed := 0, 0
	for i := 0; i < 25; i++ {
		d.Invoke(func(r Result) {
			if r.Failed {
				failed++
			} else {
				succeeded++
			}
		})
		rt.Env.Run()
	}
	if succeeded+failed != 25 {
		t.Fatalf("completed %d/25", succeeded+failed)
	}
	// With 10 attempts at 30% failure, effectively everything succeeds.
	if failed != 0 {
		t.Fatalf("%d invocations failed despite generous retries", failed)
	}
	st := d.FailureStatsSnapshot()
	if st.Crashes == 0 || st.Retries == 0 {
		t.Fatalf("no crashes (%d) or retries (%d) despite 30%% rate", st.Crashes, st.Retries)
	}
	if st.Retries != st.Crashes {
		t.Fatalf("retries %d != crashes %d when nothing exhausts", st.Retries, st.Crashes)
	}
}

func TestExhaustedRetriesFailButDrain(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore, FailureRate: 1.0, MaxAttempts: 2})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		got := false
		d.Invoke(func(r Result) { res = r; got = true })
		rt.Env.Run()
		if !got {
			t.Fatalf("%v: all-crash invocation hung instead of draining", mode)
		}
		if !res.Failed {
			t.Fatalf("%v: Result.Failed = false under 100%% crash rate", mode)
		}
		if d.FailureStatsSnapshot().Crashes == 0 {
			t.Fatalf("%v: no crashes recorded", mode)
		}
	}
}

func TestFailureKeepsStoreClean(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore, FailureRate: 0.5, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Invoke(nil)
	}
	rt.Env.Run()
	if n := rt.Store.Remote().Len(); n != 0 {
		t.Fatalf("%d keys leaked across failing invocations", n)
	}
}

func TestCrashedContainersAreDestroyed(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"),
		Options{Mode: ModeWorkerSP, Data: DataNone, FailureRate: 1.0, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Invoke(nil)
	rt.Env.Run()
	// Every container crashed; none should sit warm in the pools.
	if got := rt.Nodes["w0"].Containers(); got != 0 {
		t.Fatalf("%d crashed containers still alive", got)
	}
}

func TestFailureDeterminism(t *testing.T) {
	runOnce := func() (int64, int64) {
		rt := rig(2, network.MBps(50))
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: ModeWorkerSP, Data: DataStore, FailureRate: 0.4, MaxAttempts: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			d.Invoke(nil)
		}
		rt.Env.Run()
		st := d.FailureStatsSnapshot()
		return st.Crashes, st.Retries
	}
	c1, r1 := runOnce()
	c2, r2 := runOnce()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("failure injection nondeterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}
