package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	env.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	env.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	env.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if env.Now() != Time(30*time.Millisecond) {
		t.Fatalf("Now = %v, want 30ms", env.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	env.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	env := NewEnv()
	fired := false
	env.Schedule(-time.Second, func() { fired = true })
	env.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if env.Now() != 0 {
		t.Fatalf("Now = %v, want 0", env.Now())
	}
}

func TestCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	ev := env.NewEvent(func() { fired = true })
	env.Reschedule(ev, Time(time.Millisecond))
	ev.Cancel()
	env.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if ev.Queued() {
		t.Fatal("Queued() = true after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	env := NewEnv()
	fired := false
	later := env.NewEvent(func() { fired = true })
	env.Reschedule(later, Time(2*time.Millisecond))
	env.Schedule(time.Millisecond, func() { later.Cancel() })
	env.Run()
	if fired {
		t.Fatal("event fired despite being canceled by an earlier event")
	}
}

func TestNestedScheduling(t *testing.T) {
	env := NewEnv()
	var at []Time
	env.Schedule(time.Millisecond, func() {
		env.Schedule(time.Millisecond, func() {
			at = append(at, env.Now())
		})
	})
	env.Run()
	if len(at) != 1 || at[0] != Time(2*time.Millisecond) {
		t.Fatalf("nested event fired at %v, want [2ms]", at)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		env.At(Time(time.Millisecond), func() {})
	})
	env.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	env.Schedule(0, nil)
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	var fired []int
	env.Schedule(time.Millisecond, func() { fired = append(fired, 1) })
	env.Schedule(3*time.Millisecond, func() { fired = append(fired, 3) })
	env.RunUntil(Time(2 * time.Millisecond))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if env.Now() != Time(2*time.Millisecond) {
		t.Fatalf("Now = %v, want 2ms", env.Now())
	}
	env.RunUntil(Time(5 * time.Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want two events", fired)
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	env := NewEnv()
	env.Schedule(10*time.Millisecond, func() {})
	env.Run()
	env.RunUntil(Time(time.Millisecond))
	if env.Now() != Time(10*time.Millisecond) {
		t.Fatalf("RunUntil rewound clock to %v", env.Now())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	env := NewEnv()
	if env.Step() {
		t.Fatal("Step on empty queue reported true")
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", env.Pending())
	}
}

// nextAt is the instant of the next pending event, or MaxTime when the
// queue is empty.
func nextAt(e *Env) Time {
	if t, ok := e.peek(); ok {
		return t
	}
	return MaxTime
}

func TestNextAt(t *testing.T) {
	env := NewEnv()
	if nextAt(env) != MaxTime {
		t.Fatal("next instant on empty queue should be MaxTime")
	}
	ev := env.NewEvent(func() {})
	env.Reschedule(ev, Time(7*time.Millisecond))
	if nextAt(env) != Time(7*time.Millisecond) {
		t.Fatalf("next instant = %v, want 7ms", nextAt(env))
	}
	ev.Cancel()
	if nextAt(env) != MaxTime {
		t.Fatal("next instant should skip canceled events")
	}
}

func TestFiredCount(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 5; i++ {
		env.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	env.Run()
	if env.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", env.Fired())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", tm.Duration())
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

// Property: events fire in non-decreasing time order regardless of the
// order in which they were scheduled.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		env := NewEnv()
		var fireTimes []Time
		for _, d := range delays {
			env.Schedule(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, env.Now())
			})
		}
		env.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical prefix")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) over 1000 draws covered %d values", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		env.Run()
	}
}
