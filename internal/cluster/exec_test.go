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
				if n.RunningTasks() != 0 {
					t.Fatalf("run %d: %d tasks left running", run, n.RunningTasks())
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
		if !done || n.RunningTasks() != 0 {
			t.Fatalf("readMidway=%v: done=%v running=%d", readMidway, done, n.RunningTasks())
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

// TestExecAllocsIndependentOfRunning gates the processor-sharing cost: one
// Exec and its finish allocate the task, its finish event and the event's
// callback, however many tasks are already running on the node.
func TestExecAllocsIndependentOfRunning(t *testing.T) {
	var base float64
	for i, k := range []int{1, 16, 64} {
		allocs := testing.AllocsPerRun(100, residentNode(k))
		if allocs > 3 {
			t.Errorf("k=%d: Exec+finish allocates %v, want <= 3", k, allocs)
		}
		if i == 0 {
			base = allocs
		} else if allocs != base {
			t.Errorf("k=%d: Exec+finish allocates %v, %v at k=1", k, allocs, base)
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
