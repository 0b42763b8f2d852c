package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// checkNoResidualWork asserts the zero-leak property after a full drain
// (Env.Run returned): no containers held, no queued acquisitions, no
// running compute, no pending store operations — nothing left consuming
// resources for dead workflows. An empty event queue means no compute is
// running (every task has its finish event queued) and every released
// container has been evicted by keep-alive, so a live container is a held
// one.
func checkNoResidualWork(t *testing.T, rt *Runtime) {
	t.Helper()
	if p := rt.Env.Pending(); p != 0 {
		t.Fatalf("%d events still pending: not drained", p)
	}
	for id, n := range rt.Nodes {
		if q := n.QueuedAcquires(); q != 0 {
			t.Errorf("node %s: %d acquisitions still queued", id, q)
		}
		if c := n.Containers(); c != 0 {
			t.Errorf("node %s: %d containers still held", id, c)
		}
	}
	if p := rt.Store.Remote().PendingOps(); p != 0 {
		t.Errorf("remote store: %d operations still pending", p)
	}
}

func TestDeadlineDrainsBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := rig(2, 50e6)
			b := miniBench() // critical exec 0.3s + cold starts
			d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
				Options{Mode: mode, Data: DataStore, NoJitter: true})
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			got := false
			// 150ms: enough for step a, dead before the workflow finishes.
			d.InvokeOpts(InvokeOptions{Deadline: sim.Time(150 * time.Millisecond)},
				func(r Result) { res = r; got = true })
			rt.Env.Run()
			if !got {
				t.Fatal("deadlined invocation never completed (hang)")
			}
			if !res.Failed || !res.DeadlineExceeded {
				t.Fatalf("result = %+v, want Failed and DeadlineExceeded", res)
			}
			if d.FailureStatsSnapshot().DeadlineExceeded == 0 {
				t.Fatal("FailureStats.DeadlineExceeded = 0")
			}
			if d.liveNow != 0 {
				t.Fatalf("%d invocations live after drain", d.liveNow)
			}
			checkNoResidualWork(t, rt)
			// The drain must be prompt: everything should settle well before
			// the undisturbed workflow would have finished (~1s with cold
			// starts and transfers). Allow control-message tail latency.
			if res.End > sim.Time(600*time.Millisecond) {
				t.Fatalf("drain completed at %v, too slow for a 150ms deadline", res.End)
			}
			if st := d.FailureStatsSnapshot(); st.DeadlineExceeded == 0 {
				t.Fatalf("FailureStats = %+v, want DeadlineExceeded > 0", st)
			}
		})
	}
}

func TestDeadlineZeroLeavesRunsUntouched(t *testing.T) {
	rt := rig(2, 50e6)
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Failed || res.DeadlineExceeded {
		t.Fatalf("no-deadline run failed: %+v", res)
	}
	if n := d.FailureStatsSnapshot().DeadlineExceeded; n != 0 {
		t.Fatalf("FailureStats.DeadlineExceeded = %d without deadlines", n)
	}
}

func TestDeadlineExpiresQueuedAcquires(t *testing.T) {
	// One worker, many concurrent invocations: the per-function scale limit
	// queues most acquires. A short deadline must withdraw every queued
	// waiter and still complete every invocation — promptly and leak-free.
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := rig(1, 50e6)
			b := miniBench()
			d, err := NewDeployment(rt, b, placeAll(b, "w0"),
				Options{Mode: mode, Data: DataStore, NoJitter: true})
			if err != nil {
				t.Fatal(err)
			}
			const n = 40
			completed, deadlined := 0, 0
			for i := 0; i < n; i++ {
				d.InvokeOpts(InvokeOptions{Deadline: sim.Time(2 * time.Second)}, func(r Result) {
					completed++
					if r.DeadlineExceeded {
						deadlined++
					}
				})
			}
			rt.Env.Run()
			if completed != n {
				t.Fatalf("completed = %d of %d (hang)", completed, n)
			}
			if deadlined == 0 {
				t.Fatal("no invocation deadlined despite saturation")
			}
			checkNoResidualWork(t, rt)
			// In WorkerSP the decentralized engines dispatch fast enough to
			// pile waiters onto the acquire queues, so some must be withdrawn
			// at the deadline. MasterSP's serial master throttles dispatch —
			// its deadlines fire at trigger time instead.
			if mode == ModeWorkerSP {
				if st := rt.Nodes["w0"].Stats(); st.DeadlineAborts == 0 {
					t.Fatalf("node stats = %+v, want DeadlineAborts > 0 (queued waiters withdrawn)", st)
				}
			}
		})
	}
}

func TestDeadlineDeterminism(t *testing.T) {
	// Same schedule, same deadlines -> identical completion instants.
	runOnce := func() string {
		rt := rig(2, 50e6)
		b := miniBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: ModeWorkerSP, Data: DataStore})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for i := 0; i < 10; i++ {
			i := i
			rt.Env.Schedule(time.Duration(i)*100*time.Millisecond, func() {
				d.InvokeOpts(InvokeOptions{Deadline: rt.Env.Now() + sim.Time(700*time.Millisecond)},
					func(r Result) {
						out += fmt.Sprintf("%d:%d:%v:%v;", r.ID, int64(r.End), r.Failed, r.DeadlineExceeded)
					})
			})
		}
		rt.Env.Run()
		return out
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("nondeterministic deadline runs:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no completions recorded")
	}
}
