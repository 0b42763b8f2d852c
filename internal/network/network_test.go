package network

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestFabric(t *testing.T) (*sim.Env, *Fabric) {
	t.Helper()
	env := sim.NewEnv()
	f := New(env)
	return env, f
}

// fabricWatch tallies what a fabric publishes on its bus: the bytes each
// node sent and received, in bulk transfers and control messages, and the
// finished flows with the active count the last one left behind.
type fabricWatch struct {
	out, in    map[string]int64
	finished   int
	lastActive int
}

func watchFabric(f *Fabric) *fabricWatch {
	w := &fabricWatch{out: map[string]int64{}, in: map[string]int64{}}
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		switch e := ev.(type) {
		case obs.FlowEvent:
			if e.Done {
				w.finished++
				w.lastActive = e.Active
				return
			}
			w.out[e.From] += e.Bytes
			w.in[e.To] += e.Bytes
		case obs.MsgEvent:
			w.out[e.From] += e.Bytes
			w.in[e.To] += e.Bytes
		}
	})
	f.SetBus(bus)
	return w
}

func TestSingleFlowTime(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	var doneAt sim.Time
	f.Send("a", "b", 100_000_000, func() { doneAt = env.Now() }) // 100 MB at 100 MB/s => 1s
	env.Run()
	want := 1.0 + MsgLatency.Seconds()
	if math.Abs(doneAt.Seconds()-want) > 0.001 {
		t.Fatalf("transfer finished at %vs, want ~%vs", doneAt.Seconds(), want)
	}
}

func TestBottleneckIsSlowerSide(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("fast", MBps(100), MBps(100))
	f.AddNode("slow", MBps(25), MBps(25))
	var doneAt sim.Time
	f.Send("fast", "slow", 25_000_000, func() { doneAt = env.Now() }) // 25MB at 25MB/s => 1s
	env.Run()
	if math.Abs(doneAt.Seconds()-1.0) > 0.01 {
		t.Fatalf("finished at %vs, want ~1s (receiver-limited)", doneAt.Seconds())
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	f.AddNode("store", MBps(50), MBps(50))
	var at []float64
	// Both senders push 25 MB into the store's 50 MB/s ingress: each gets
	// 25 MB/s, so both finish around t=1s.
	f.Send("a", "store", 25_000_000, func() { at = append(at, env.Now().Seconds()) })
	f.Send("b", "store", 25_000_000, func() { at = append(at, env.Now().Seconds()) })
	env.Run()
	if len(at) != 2 {
		t.Fatalf("expected 2 completions, got %d", len(at))
	}
	for _, v := range at {
		if math.Abs(v-1.0) > 0.01 {
			t.Fatalf("completions at %v, want both ~1s", at)
		}
	}
}

func TestMaxMinFairnessUnevenFlows(t *testing.T) {
	// Three flows into a 30 MB/s sink; one of the senders is itself limited
	// to 5 MB/s egress. Max-min: the slow sender gets 5, the other two split
	// the remaining 25 -> 12.5 each.
	env, f := newTestFabric(t)
	f.AddNode("s1", MBps(100), MBps(100))
	f.AddNode("s2", MBps(100), MBps(100))
	f.AddNode("slow", MBps(5), MBps(5))
	f.AddNode("sink", MBps(30), MBps(30))
	fl1 := f.Send("s1", "sink", 1_000_000_000, nil)
	fl2 := f.Send("s2", "sink", 1_000_000_000, nil)
	fl3 := f.Send("slow", "sink", 1_000_000_000, nil)
	env.RunUntil(sim.Time(10 * time.Millisecond))
	if math.Abs(fl3.rate-5e6) > 1 {
		t.Fatalf("slow flow rate = %v, want 5e6", fl3.rate)
	}
	if math.Abs(fl1.rate-12.5e6) > 1 || math.Abs(fl2.rate-12.5e6) > 1 {
		t.Fatalf("fast flows rates = %v, %v, want 12.5e6 each", fl1.rate, fl2.rate)
	}
}

func TestRatesRecomputeOnCompletion(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	f.AddNode("sink", MBps(50), MBps(50))
	var shortDone, longDone float64
	// Short flow: 25 MB. Long flow: 75 MB. Phase 1: both at 25 MB/s; short
	// finishes at t=1. Phase 2: long runs at 50 MB/s for its remaining
	// 50 MB => finishes at t=2.
	f.Send("a", "sink", 25_000_000, func() { shortDone = env.Now().Seconds() })
	f.Send("b", "sink", 75_000_000, func() { longDone = env.Now().Seconds() })
	env.Run()
	if math.Abs(shortDone-1.0) > 0.01 {
		t.Fatalf("short done at %v, want ~1s", shortDone)
	}
	if math.Abs(longDone-2.0) > 0.01 {
		t.Fatalf("long done at %v, want ~2s", longDone)
	}
}

func TestSetBandwidthMidTransfer(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	var doneAt float64
	// 100 MB at 100 MB/s. At t=0.5s (50 MB through) throttle b to 25 MB/s:
	// remaining 50 MB takes 2 s => done ~2.5 s.
	f.Send("a", "b", 100_000_000, func() { doneAt = env.Now().Seconds() })
	env.Schedule(500*time.Millisecond, func() { f.SetBandwidth("b", MBps(25), MBps(25)) })
	env.Run()
	if math.Abs(doneAt-2.5) > 0.01 {
		t.Fatalf("done at %v, want ~2.5s", doneAt)
	}
}

func TestLocalTransferBypassesFabric(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(1), MBps(1)) // tiny bandwidth; local must not care
	var doneAt sim.Time
	fl := f.Send("a", "a", 1_000_000_000, func() { doneAt = env.Now() })
	if fl != nil {
		t.Fatal("local transfer returned a fabric flow")
	}
	env.Run()
	if doneAt != sim.Time(localLatency) {
		t.Fatalf("local transfer took %v, want %v", doneAt, localLatency)
	}
	if st := f.Stats(); st.TotalBytes != 0 {
		t.Fatalf("local transfer counted %d fabric bytes", st.TotalBytes)
	}
}

func TestZeroSizeTransferCompletes(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(10), MBps(10))
	f.AddNode("b", MBps(10), MBps(10))
	done := false
	f.Send("a", "b", 0, func() { done = true })
	env.Run()
	if !done {
		t.Fatal("zero-size transfer never completed")
	}
}

func TestSendMsgLatency(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	var doneAt sim.Time
	f.SendMsg("a", "b", 1000, func() { doneAt = env.Now() })
	env.Run()
	want := MsgLatency + time.Duration(1000.0/100e6*1e9)
	if doneAt != sim.Time(want) {
		t.Fatalf("msg delivered at %v, want %v", doneAt, want)
	}
}

func TestByteAccounting(t *testing.T) {
	env, f := newTestFabric(t)
	f.AddNode("a", MBps(100), MBps(100))
	f.AddNode("b", MBps(100), MBps(100))
	w := watchFabric(f)
	f.Send("a", "b", 5_000_000, nil)
	f.SendMsg("a", "b", 500, nil)
	env.Run()
	if out, in := w.out["a"], w.in["a"]; out != 5_000_500 || in != 0 {
		t.Fatalf("a bytes out=%d in=%d", out, in)
	}
	if out, in := w.out["b"], w.in["b"]; out != 0 || in != 5_000_500 {
		t.Fatalf("b bytes out=%d in=%d", out, in)
	}
	st := f.Stats()
	if st.TotalBytes != 5_000_500 || st.TotalFlows != 1 || st.TotalMsgs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, f := newTestFabric(t)
	f.AddNode("a", MBps(1), MBps(1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	f.AddNode("a", MBps(1), MBps(1))
}

func TestUnknownNodePanics(t *testing.T) {
	_, f := newTestFabric(t)
	f.AddNode("a", MBps(1), MBps(1))
	defer func() {
		if recover() == nil {
			t.Error("Send to unknown node did not panic")
		}
	}()
	f.Send("a", "ghost", 1, nil)
}

func TestNodesSorted(t *testing.T) {
	_, f := newTestFabric(t)
	f.AddNode("zeta", MBps(1), MBps(1))
	f.AddNode("alpha", MBps(1), MBps(1))
	got := f.order
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("node order = %v", got)
	}
}

// Property: with n equal senders pushing the same size into one sink, all
// complete at (approximately) the same instant, and that instant is
// n*size/sinkBW plus latency.
func TestEqualSharePropertyNFlows(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%7) + 2 // 2..8 senders
		env := sim.NewEnv()
		fab := New(env)
		fab.AddNode("sink", MBps(50), MBps(50))
		const size = 10_000_000
		var finishes []float64
		for i := 0; i < n; i++ {
			id := string(rune('a' + i))
			fab.AddNode(id, MBps(100), MBps(100))
			fab.Send(id, "sink", size, func() {
				finishes = append(finishes, env.Now().Seconds())
			})
		}
		env.Run()
		if len(finishes) != n {
			return false
		}
		want := float64(n) * size / 50e6
		for _, v := range finishes {
			if math.Abs(v-want) > 0.05*want+0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — total bytes received equals total bytes sent,
// for random flow patterns.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		env := sim.NewEnv()
		fab := New(env)
		ids := []string{"n0", "n1", "n2", "n3"}
		for _, id := range ids {
			fab.AddNode(id, MBps(float64(10+rng.Intn(90))), MBps(float64(10+rng.Intn(90))))
		}
		w := watchFabric(fab)
		completed := 0
		sent := 0
		var total int64
		for i := 0; i < 20; i++ {
			from := ids[rng.Intn(len(ids))]
			to := ids[rng.Intn(len(ids))]
			if from == to {
				continue
			}
			size := int64(rng.Intn(5_000_000) + 1)
			total += size
			sent++
			fab.Send(from, to, size, func() { completed++ })
		}
		env.Run()
		if completed != sent {
			return false
		}
		var sumOut, sumIn int64
		for _, id := range ids {
			sumOut += w.out[id]
			sumIn += w.in[id]
		}
		return sumOut == total && sumIn == total && w.finished == sent && w.lastActive == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: work conservation under one bottleneck — the sink link is fully
// utilized until the last flow finishes, so makespan == total/bw (+latency).
func TestWorkConservationProperty(t *testing.T) {
	f := func(sizesRaw []uint32) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 10 {
			return true
		}
		env := sim.NewEnv()
		fab := New(env)
		fab.AddNode("sink", MBps(40), MBps(40))
		var total float64
		var last float64
		for i, raw := range sizesRaw {
			size := int64(raw%20_000_000) + 1_000_000
			total += float64(size)
			id := string(rune('a' + i))
			fab.AddNode(id, MBps(1000), MBps(1000))
			fab.Send(id, "sink", size, func() {
				if v := env.Now().Seconds(); v > last {
					last = v
				}
			})
		}
		env.Run()
		want := total / 40e6
		return math.Abs(last-want) < 0.02*want+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMBpsRoundTrip(t *testing.T) {
	if got := MBps(50); got != 50e6 {
		t.Fatalf("MBps(50) = %v bytes/s, want 5e7", got)
	}
}

func BenchmarkFabric100Flows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fab := New(env)
		fab.AddNode("sink", MBps(100), MBps(100))
		for j := 0; j < 10; j++ {
			fab.AddNode(string(rune('a'+j)), MBps(100), MBps(100))
		}
		for j := 0; j < 100; j++ {
			fab.Send(string(rune('a'+j%10)), "sink", int64(1_000_000+j*1000), nil)
		}
		env.Run()
	}
}
