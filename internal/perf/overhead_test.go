package perf

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
)

// Self-overhead accounting: the observability layer must be close to free
// when nobody is listening. Two gates below — an allocation gate (exact,
// always on) and a timing gate (skipped under -race) — both over the full
// engine-dispatch path, where every obs publish site sits.

// dispatchOnce runs one warmed deployment through a single Genome(10)
// invocation; the returned closure is the unit both gates measure.
func dispatchOnce(t testing.TB, om ObsMode) func() {
	tb, d, err := dispatchBed(engine.ModeWorkerSP, om)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	return func() {
		d.Invoke(nil)
		tb.Env.Run()
	}
}

// TestDispatchObsIdleAddsNoAllocs asserts that carrying an attached but
// subscriber-less bus adds zero allocations per dispatched invocation
// relative to no bus at all: every publish site must check Active() before
// building its event (boxing a payload into the Event interface is an
// allocation, guard or not).
func TestDispatchObsIdleAddsNoAllocs(t *testing.T) {
	const runs = 30
	off := mallocsPerRun(runs, dispatchOnce(t, ObsOff))
	idle := mallocsPerRun(runs, dispatchOnce(t, ObsIdle))
	if delta := idle - off; delta >= 1 {
		t.Fatalf("obs-idle dispatch allocates %.2f more than obs-off (%.2f vs %.2f) — an unguarded publish site is boxing events nobody reads",
			delta, idle, off)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its truncation to an
// integer: the exact mean of heap allocations per call of f. A sporadic
// runtime allocation in one run moves a floored mean by a whole unit when
// it sits near an integer boundary; the exact mean moves by 1/runs.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestDispatchObsIdleOverheadUnder10Pct asserts the headline self-overhead
// budget: an idle bus may cost at most 10% of engine dispatch time. Each
// side takes the minimum of several trials — minimum, not mean, because
// scheduler noise only ever adds time, so min-of-N is the stable estimate
// of the true cost.
func TestDispatchObsIdleOverheadUnder10Pct(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion skipped under -race")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	const trials = 5
	const batch = 40
	measure := func(om ObsMode) time.Duration {
		once := dispatchOnce(t, om)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			start := time.Now()
			for j := 0; j < batch; j++ {
				once()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	off := measure(ObsOff)
	idle := measure(ObsIdle)
	if off <= 0 {
		t.Fatalf("obs-off batch measured %v — clock resolution too coarse", off)
	}
	overhead := float64(idle-off) / float64(off)
	t.Logf("dispatch batch: obs-off=%v obs-idle=%v overhead=%.1f%%", off, idle, overhead*100)
	if overhead > 0.10 {
		t.Fatalf("idle obs bus costs %.1f%% of engine dispatch, budget is 10%%", overhead*100)
	}
}

// TestDispatchObsOnCompletes pins the collecting configuration: a full
// Collector+LatencyTracker attachment must survive dispatch (its cost is
// tracked in BENCH snapshots, not hard-gated here — collection is opt-in).
func TestDispatchObsOnCompletes(t *testing.T) {
	once := dispatchOnce(t, ObsOn)
	once()
}
