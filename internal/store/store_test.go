package store

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

const (
	storageNode = "storage"
	workerA     = "w1"
	workerB     = "w2"
)

// stored reports whether the remote store holds key.
func stored(s *RemoteKV, key string) bool {
	_, ok := s.values[key]
	return ok
}

func testRig(t *testing.T) (*sim.Env, *network.Fabric, *RemoteKV) {
	t.Helper()
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode(storageNode, network.MBps(50), network.MBps(50))
	fab.AddNode(workerA, network.MBps(100), network.MBps(100))
	fab.AddNode(workerB, network.MBps(100), network.MBps(100))
	remote := NewRemoteKV(env, fab, storageNode, time.Millisecond)
	return env, fab, remote
}

func TestRemotePutGetRoundTrip(t *testing.T) {
	env, _, remote := testRig(t)
	var gotSize int64
	var gotOK bool
	remote.Put(workerA, "k", 5_000_000, func() {
		remote.Get(workerB, "k", func(size int64, ok bool) {
			gotSize, gotOK = size, ok
		})
	})
	env.Run()
	if !gotOK || gotSize != 5_000_000 {
		t.Fatalf("Get = (%d, %v)", gotSize, gotOK)
	}
	st := remote.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.BytesPut != 5_000_000 || st.BytesGot != 5_000_000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemotePutPaysBandwidth(t *testing.T) {
	env, _, remote := testRig(t)
	var doneAt sim.Time
	// 50 MB into a 50 MB/s storage link ≈ 1s.
	remote.Put(workerA, "k", 50_000_000, func() { doneAt = env.Now() })
	env.Run()
	if s := doneAt.Seconds(); math.Abs(s-1.0) > 0.05 {
		t.Fatalf("put took %vs, want ~1s", s)
	}
}

func TestRemoteGetMissing(t *testing.T) {
	env, _, remote := testRig(t)
	called := false
	remote.Get(workerA, "ghost", func(size int64, ok bool) {
		called = true
		if ok || size != 0 {
			t.Errorf("missing key Get = (%d, %v)", size, ok)
		}
	})
	env.Run()
	if !called {
		t.Fatal("Get callback never ran")
	}
}

func TestRemoteDelete(t *testing.T) {
	env, _, remote := testRig(t)
	remote.Put(workerA, "k", 100, nil)
	env.Run()
	if !stored(remote, "k") {
		t.Fatal("key missing after put")
	}
	remote.Delete("k")
	if stored(remote, "k") || len(remote.values) != 0 {
		t.Fatal("key survived delete")
	}
}

func TestMemKVQuotaEnforced(t *testing.T) {
	env := sim.NewEnv()
	m := NewMemKV(env, workerA, 1000)
	if !m.TryPut("a", 600, nil) {
		t.Fatal("first put rejected")
	}
	if m.TryPut("b", 500, nil) {
		t.Fatal("put over quota accepted")
	}
	if !m.TryPut("c", 400, nil) {
		t.Fatal("exact-fit put rejected")
	}
	if m.Used() != 1000 {
		t.Fatalf("Used = %d", m.Used())
	}
	m.Delete("a")
	if m.Used() != 400 {
		t.Fatalf("Used after delete = %d", m.Used())
	}
	if !m.TryPut("d", 600, nil) {
		t.Fatal("put after delete rejected")
	}
	env.Run()
}

func TestMemKVGet(t *testing.T) {
	env := sim.NewEnv()
	m := NewMemKV(env, workerA, 1000)
	m.TryPut("k", 800, nil)
	var size int64
	var ok bool
	m.Get("k", func(s int64, o bool) { size, ok = s, o })
	env.Run()
	if !ok || size != 800 {
		t.Fatalf("Get = (%d, %v)", size, ok)
	}
	ok = true
	m.Get("missing", func(s int64, o bool) { ok = o })
	env.Run()
	if ok {
		t.Fatal("missing key reported ok")
	}
}

func TestMemKVIsFastLocally(t *testing.T) {
	env := sim.NewEnv()
	m := NewMemKV(env, workerA, 1<<30)
	var doneAt sim.Time
	m.TryPut("k", 30_000_000, func() { doneAt = env.Now() }) // 30MB at 150MB/s = 200ms
	env.Run()
	if ms := doneAt.Duration().Milliseconds(); ms < 150 || ms > 300 {
		t.Fatalf("local put of 30MB took %vms, want ~200ms", ms)
	}
}

func TestMemKVShrinkQuota(t *testing.T) {
	env := sim.NewEnv()
	m := NewMemKV(env, workerA, 1000)
	m.TryPut("k", 900, nil)
	m.SetQuota(500)
	if m.TryPut("x", 10, nil) {
		t.Fatal("put accepted while over shrunk quota")
	}
	m.Delete("k")
	if !m.TryPut("x", 400, nil) {
		t.Fatal("put rejected after drain")
	}
	env.Run()
}

func newHybridRig(t *testing.T, remoteOnly bool, quota int64) (*sim.Env, *Hybrid) {
	t.Helper()
	env, _, remote := testRig(t)
	mems := map[string]*MemKV{
		workerA: NewMemKV(env, workerA, quota),
		workerB: NewMemKV(env, workerB, quota),
	}
	return env, NewHybrid(remote, mems, remoteOnly)
}

func TestHybridKeepsLocalWhenConsumersLocal(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	var loc Location
	h.Put(workerA, "k", 1000, []string{workerA}, func(l Location, _ error) { loc = l })
	env.Run()
	if loc != LocMemory {
		t.Fatalf("placement = %v, want memory", loc)
	}
	var ok bool
	h.Get(workerA, "k", func(s int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok || h.LocalHits() != 1 {
		t.Fatalf("local get failed: hits=%d", h.LocalHits())
	}
}

func TestHybridGoesRemoteForCrossWorkerConsumer(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	var loc Location
	h.Put(workerA, "k", 1000, []string{workerA, workerB}, func(l Location, _ error) { loc = l })
	env.Run()
	if loc != LocRemote {
		t.Fatalf("placement = %v, want remote", loc)
	}
	var ok bool
	h.Get(workerB, "k", func(s int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok {
		t.Fatal("remote get failed")
	}
	if h.LocalMisses() != 1 {
		t.Fatalf("misses = %d", h.LocalMisses())
	}
}

func TestHybridTerminalOutputGoesRemote(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	var loc Location
	h.Put(workerA, "final", 10, nil, func(l Location, _ error) { loc = l })
	env.Run()
	if loc != LocRemote {
		t.Fatalf("terminal output placed %v, want remote", loc)
	}
}

func TestHybridQuotaOverflowFallsBack(t *testing.T) {
	env, h := newHybridRig(t, false, 500)
	var locs []Location
	h.Put(workerA, "a", 400, []string{workerA}, func(l Location, _ error) { locs = append(locs, l) })
	h.Put(workerA, "b", 400, []string{workerA}, func(l Location, _ error) { locs = append(locs, l) })
	env.Run()
	if len(locs) != 2 || locs[0] != LocMemory || locs[1] != LocRemote {
		t.Fatalf("placements = %v, want [memory remote]", locs)
	}
	// The fallback must still be readable.
	var ok bool
	h.Get(workerA, "b", func(s int64, o bool, _ error) { ok = o })
	env.Run()
	if !ok {
		t.Fatal("fallback value unreadable")
	}
}

func TestHybridRemoteOnlyMode(t *testing.T) {
	env, h := newHybridRig(t, true, 1<<20)
	var loc Location
	h.Put(workerA, "k", 10, []string{workerA}, func(l Location, _ error) { loc = l })
	env.Run()
	if loc != LocRemote {
		t.Fatalf("remote-only placement = %v", loc)
	}
	if len(h.mem[workerA].values) != 0 {
		t.Fatal("remote-only mode touched worker memory")
	}
}

func TestHybridDeleteReleasesQuota(t *testing.T) {
	env, h := newHybridRig(t, false, 500)
	h.Put(workerA, "a", 400, []string{workerA}, nil)
	env.Run()
	h.Delete("a")
	if h.mem[workerA].Used() != 0 {
		t.Fatalf("used = %d after delete", h.mem[workerA].Used())
	}
	if h.placements["a"] != LocNone {
		t.Fatalf("Where = %v after delete", h.placements["a"])
	}
	ok := true
	h.Get(workerA, "a", func(s int64, o bool, _ error) { ok = o })
	env.Run()
	if ok {
		t.Fatal("deleted key still readable")
	}
}

// TestHybridDeleteDuringRemoteWrite: a key deleted while its remote write
// is still in flight (its invocation finished first) must not be left in
// the database when the write lands.
func TestHybridDeleteDuringRemoteWrite(t *testing.T) {
	env, h := newHybridRig(t, false, 1<<20)
	var loc Location
	h.Put(workerA, "k", 1_000_000, nil, func(l Location, _ error) { loc = l })
	env.Schedule(time.Millisecond, func() { h.Delete("k") })
	env.Run()
	if loc != LocRemote {
		t.Fatalf("write completed at %v, want remote", loc)
	}
	if stored(h.remote, "k") || h.placements["k"] != LocNone {
		t.Fatalf("deleted key survived its late write: stored=%v placement=%v", stored(h.remote, "k"), h.placements["k"])
	}
}

func TestHybridLocalIsMuchFasterThanRemote(t *testing.T) {
	const size = 20_000_000
	envL, hL := newHybridRig(t, false, 1<<30)
	var localDone sim.Time
	hL.Put(workerA, "k", size, []string{workerA}, nil)
	envL.Run()
	start := envL.Now()
	hL.Get(workerA, "k", func(int64, bool, error) { localDone = envL.Now() - start })
	envL.Run()

	envR, hR := newHybridRig(t, true, 1<<30)
	var remoteDone sim.Time
	hR.Put(workerA, "k", size, []string{workerA}, nil)
	envR.Run()
	startR := envR.Now()
	hR.Get(workerA, "k", func(int64, bool, error) { remoteDone = envR.Now() - startR })
	envR.Run()

	if float64(remoteDone) < 2*float64(localDone) {
		t.Fatalf("remote get (%v) not >2x local get (%v)", remoteDone, localDone)
	}
}

func TestLocationString(t *testing.T) {
	if LocNone.String() != "none" || LocRemote.String() != "remote" || LocMemory.String() != "memory" {
		t.Fatal("Location strings wrong")
	}
	if Location(9).String() != "Location(9)" {
		t.Fatal("unknown location string wrong")
	}
}

func TestOverprovisionEquation(t *testing.T) {
	cases := []struct {
		f    FunctionMem
		mu   int64
		want int64
	}{
		{FunctionMem{Provisioned: 256 << 20, PeakUsage: 100 << 20, Map: 1}, 16 << 20, 140 << 20},
		{FunctionMem{Provisioned: 256 << 20, PeakUsage: 250 << 20, Map: 1}, 16 << 20, 0}, // negative slack clamps
		{FunctionMem{Provisioned: 100, PeakUsage: 40, Map: 4}, 10, 200},                  // Map multiplies
		{FunctionMem{Provisioned: 100, PeakUsage: 40, Map: 0}, 10, 50},                   // Map < 1 treated as 1
	}
	for i, tc := range cases {
		if got := Overprovision(tc.f, tc.mu); got != tc.want {
			t.Errorf("case %d: Overprovision = %d, want %d", i, got, tc.want)
		}
	}
}

func TestQuotaOfSums(t *testing.T) {
	fs := []FunctionMem{
		{Provisioned: 100, PeakUsage: 50, Map: 1},
		{Provisioned: 100, PeakUsage: 90, Map: 1},
		{Provisioned: 100, PeakUsage: 10, Map: 2},
	}
	// mu=10: O = 40 + 0 + 160 = 200
	if got := QuotaOf(fs, 10); got != 200 {
		t.Fatalf("QuotaOf = %d, want 200", got)
	}
	if QuotaOf(nil, 10) != 0 {
		t.Fatal("empty quota not zero")
	}
}

// Property: quota is never negative and is monotone in provisioned memory.
func TestQuotaProperties(t *testing.T) {
	f := func(prov, peak uint32, mapRaw uint8, mu uint16) bool {
		fm := FunctionMem{Provisioned: int64(prov), PeakUsage: int64(peak), Map: float64(mapRaw%8) + 1}
		o := Overprovision(fm, int64(mu))
		if o < 0 {
			return false
		}
		fm2 := fm
		fm2.Provisioned += 1000
		return Overprovision(fm2, int64(mu)) >= o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MemKV usage always equals the sum of resident values and never
// exceeds quota, across random operation sequences.
func TestMemKVInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		env := sim.NewEnv()
		quota := int64(rng.Intn(10000) + 1)
		m := NewMemKV(env, "w", quota)
		live := map[string]int64{}
		var sum int64
		for i := 0; i < 200; i++ {
			key := string(rune('a' + rng.Intn(10)))
			if rng.Float64() < 0.6 {
				size := int64(rng.Intn(3000))
				if _, exists := live[key]; exists {
					continue // no overwrite semantics in this test
				}
				if m.TryPut(key, size, nil) {
					live[key] = size
					sum += size
				} else if sum+size <= quota {
					return false // rejected a fitting put
				}
			} else {
				if sz, ok := live[key]; ok {
					m.Delete(key)
					sum -= sz
					delete(live, key)
				}
			}
			if m.Used() != sum || m.Used() > quota {
				return false
			}
		}
		env.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHybridLocalPutGet(b *testing.B) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode(storageNode, network.MBps(50), network.MBps(50))
	fab.AddNode(workerA, network.MBps(100), network.MBps(100))
	remote := NewRemoteKV(env, fab, storageNode, time.Millisecond)
	h := NewHybrid(remote, map[string]*MemKV{workerA: NewMemKV(env, workerA, 1<<40)}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(workerA, "k", 1000, []string{workerA}, nil)
		h.Get(workerA, "k", nil)
		h.Delete("k")
		env.Run()
	}
}
