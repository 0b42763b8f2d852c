package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestExecTiesFinishInExecOrder pins the tie rule: equal tasks due at the
// same instant complete in the order they were started, with spare cores
// (k <= Cores) and under contention (k > Cores), on every run.
func TestExecTiesFinishInExecOrder(t *testing.T) {
	for _, k := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			for run := 0; run < 200; run++ {
				env := sim.NewEnv()
				n := NewNode(env, "w1", smallConfig()) // 2 cores
				var order []int
				for i := 0; i < k; i++ {
					n.Exec(0.5, func() { order = append(order, i) })
				}
				env.Run()
				if len(order) != k {
					t.Fatalf("run %d: %d of %d tasks finished", run, len(order), k)
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("run %d: completion order %v, want Exec order", run, order)
					}
				}
				if len(n.running) != 0 {
					t.Fatalf("run %d: %d tasks left running", run, len(n.running))
				}
			}
		})
	}
}

// TestFailWithTiesDropsEveryTask fails a node whose equal tasks are tied,
// both mid-run and at the very instant the first of them is due: no done
// callback fires, and no task or finish event survives the crash.
func TestFailWithTiesDropsEveryTask(t *testing.T) {
	// Every task is due no earlier than its solo-rate finish instant.
	firstDue := sim.Time(500*time.Millisecond + 1)
	for _, k := range []int{2, 4, 7} {
		for _, at := range []sim.Time{firstDue / 2, firstDue} {
			t.Run(fmt.Sprintf("k=%d/at=%v", k, at), func(t *testing.T) {
				for run := 0; run < 200; run++ {
					env := sim.NewEnv()
					n := NewNode(env, "w1", smallConfig())
					env.At(at, n.Fail) // queued first: it wins the tie at firstDue
					fired := 0
					for i := 0; i < k; i++ {
						n.Exec(0.5, func() { fired++ })
					}
					env.RunUntil(at)
					if len(n.running) != 0 || env.Pending() != 0 {
						t.Fatalf("run %d: %d tasks and %d events survived Fail", run, len(n.running), env.Pending())
					}
					env.Run()
					if fired != 0 {
						t.Fatalf("run %d: %d done callbacks fired on a failed node", run, fired)
					}
				}
			})
		}
	}
}

// TestSpareTasksReused: tasks killed by Fail, and finished ones, go back
// on the spare list and later Execs reuse them. A reused task runs only its
// new done callback, at the instant a fresh task would finish.
func TestSpareTasksReused(t *testing.T) {
	start := sim.Time(100 * time.Millisecond)
	run := func(n *Node, env *sim.Env) []int {
		var order []int
		for i := 0; i < 3; i++ {
			n.Exec(0.5, func() { order = append(order, i) })
		}
		env.Run()
		return order
	}
	refEnv := sim.NewEnv()
	ref := NewNode(refEnv, "w1", smallConfig())
	refEnv.RunUntil(start)
	wantOrder := run(ref, refEnv)

	env := sim.NewEnv()
	n := NewNode(env, "w1", smallConfig())
	stale := 0
	for i := 0; i < 3; i++ {
		n.Exec(1, func() { stale++ })
	}
	env.RunUntil(start)
	n.Fail()
	n.Recover()
	if len(n.spare) != 3 {
		t.Fatalf("%d spare tasks after Fail, want 3", len(n.spare))
	}
	order := run(n, env)
	if stale != 0 {
		t.Fatalf("%d done callbacks of killed tasks fired", stale)
	}
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) || env.Now() != refEnv.Now() {
		t.Fatalf("reused tasks finished %v at %v, fresh ones %v at %v", order, env.Now(), wantOrder, refEnv.Now())
	}
	if len(n.spare) != 3 {
		t.Fatalf("%d spare tasks after every task finished, want 3", len(n.spare))
	}
}

// TestStatsMidRunLeavesTasksRunning reads Stats while a task is in flight:
// the read reports the work done so far and does not disturb the task,
// which finishes at exactly the instant it would without the read.
func TestStatsMidRunLeavesTasksRunning(t *testing.T) {
	finishAt := func(readMidway bool) (sim.Time, time.Duration) {
		env := sim.NewEnv()
		n := NewNode(env, "w1", smallConfig())
		var doneAt sim.Time
		done := false
		n.Exec(1.0, func() { doneAt, done = env.Now(), true })
		env.RunUntil(sim.Time(500 * time.Millisecond))
		var mid time.Duration
		if readMidway {
			mid = n.Stats().CPUBusy
		}
		env.Run()
		if !done || len(n.running) != 0 {
			t.Fatalf("readMidway=%v: done=%v running=%d", readMidway, done, len(n.running))
		}
		return doneAt, mid
	}
	want, _ := finishAt(false)
	got, mid := finishAt(true)
	if got != want {
		t.Fatalf("task finished at %v after a mid-run Stats, want %v", got, want)
	}
	if mid != 500*time.Millisecond {
		t.Fatalf("CPUBusy at the midpoint = %v, want 500ms", mid)
	}
}

// residentNode returns a node (8 cores) carrying k long-running tasks and
// a step that runs one short Exec from start to finish.
func residentNode(k int) func() {
	env := sim.NewEnv()
	n := NewNode(env, "w1", DefaultConfig())
	for i := 0; i < k; i++ {
		n.Exec(1e6, nil)
	}
	finished := false
	done := func() { finished = true }
	return func() {
		finished = false
		n.Exec(0.001, done)
		for !finished {
			env.Step()
		}
	}
}

// TestExecAllocsIndependentOfRunning gates the processor-sharing cost: a
// finished task, with its finish event and bound callback, is reused by
// the next Exec, so one Exec and its finish allocate nothing, however many
// tasks are already running on the node.
func TestExecAllocsIndependentOfRunning(t *testing.T) {
	for _, k := range []int{1, 16, 64} {
		if allocs := testing.AllocsPerRun(100, residentNode(k)); allocs != 0 {
			t.Errorf("k=%d: Exec+finish allocates %v, want 0", k, allocs)
		}
	}
}

func BenchmarkNodeExecContended(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			step := residentNode(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
