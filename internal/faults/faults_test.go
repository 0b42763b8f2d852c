package faults

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

func testNode(env *sim.Env, id string) *cluster.Node {
	return cluster.NewNode(env, id, cluster.Config{
		Cores: 2, DRAM: 1 << 30, ContainerMem: 256 << 20,
		ColdStart: 100 * time.Millisecond, KeepAlive: 10 * time.Second, PerFnLimit: 4,
	})
}

// windowLog counts the node and store fault windows an injector opens
// and closes, from the fault events it publishes on the returned bus.
type windowLog struct{ opened, closed int }

func (w *windowLog) bus() *obs.Bus {
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		down := false
		switch e := ev.(type) {
		case obs.NodeFaultEvent:
			down = e.Down
		case obs.StoreFaultEvent:
			down = e.Down
		default:
			return
		}
		if down {
			w.opened++
		} else {
			w.closed++
		}
	})
	return bus
}

func (w *windowLog) check(t *testing.T, at string, opened, closed int) {
	t.Helper()
	if w.opened != opened || w.closed != closed {
		t.Fatalf("%s: windows opened/closed = %d/%d, want %d/%d", at, w.opened, w.closed, opened, closed)
	}
}

func TestValidate(t *testing.T) {
	bad := []Schedule{
		{{Kind: NodeDown, At: -time.Second, Node: "w0"}},
		{{Kind: NodeDown}},
		{{Kind: LinkDegraded}},
		{{Kind: LinkDegraded, Node: "w0", Factor: 1.5}},
		{{Kind: LinkDegraded, Node: "w0", Factor: -0.1}},
		{{Kind: Kind(99)}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad schedule %d validated", i)
		}
	}
	good := Schedule{
		{Kind: NodeDown, Node: "w0", At: time.Second, Duration: time.Second},
		{Kind: LinkDegraded, Node: "w0", Factor: 0.5},
		{Kind: StoreOutage, At: 2 * time.Second},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallRejectsUnknownTargets verifies topology checks happen before
// anything is armed.
func TestInstallRejectsUnknownTargets(t *testing.T) {
	env := sim.NewEnv()
	nodes := map[string]*cluster.Node{"w0": testNode(env, "w0")}
	inj := NewInjector(env, nodes, nil, nil, nil)
	if err := inj.Install(Schedule{{Kind: NodeDown, Node: "nope"}}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := inj.Install(Schedule{{Kind: LinkDegraded, Node: "w0", Factor: 0.5}}); err == nil {
		t.Error("link fault accepted with no fabric")
	}
	if err := inj.Install(Schedule{{Kind: StoreOutage}}); err == nil {
		t.Error("store outage accepted with no store")
	}
}

// TestNodeFaultWindow drives a node through a scheduled death-and-recovery
// window and checks the node's state tracks the schedule on the sim clock.
func TestNodeFaultWindow(t *testing.T) {
	env := sim.NewEnv()
	n := testNode(env, "w0")
	var log windowLog
	inj := NewInjector(env, map[string]*cluster.Node{"w0": n}, nil, nil, log.bus())
	err := inj.Install(Schedule{{
		Kind: NodeDown, Node: "w0", At: time.Second, Duration: 2 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	env.RunUntil(sim.Time(1500 * time.Millisecond))
	if !n.Failed() {
		t.Fatal("node alive inside the fault window")
	}
	env.Run()
	if n.Failed() {
		t.Fatal("node still failed after the window closed")
	}
	log.check(t, "end", 1, 1)
}

// TestLinkAndStoreFaults wires a fabric and hybrid store and verifies the
// link partition and the store outage follow their windows: a control
// message out of the partitioned worker is held until the heal, then pays
// full link speed again, and a read issued during the outage waits for
// its end while one issued after it does not.
func TestLinkAndStoreFaults(t *testing.T) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	fab.AddNode("w0", network.MBps(100), network.MBps(100))
	fab.AddNode("w1", network.MBps(100), network.MBps(100))
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	hybrid := store.NewHybrid(remote, map[string]*store.MemKV{}, true)
	inj := NewInjector(env, nil, fab, hybrid, nil)
	err := inj.Install(Schedule{
		{Kind: LinkDegraded, Node: "w0", At: time.Second, Duration: time.Second, Factor: 0},
		{Kind: StoreOutage, At: time.Second, Duration: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.RunUntil(sim.Time(1500 * time.Millisecond))
	msgAt := sim.Time(-1)
	const msgBytes = 1_000_000
	fab.SendMsg("w0", "master", msgBytes, func() { msgAt = env.Now() })
	probe := storeProbe(env, remote, "w1")
	env.RunUntil(sim.Time(1999 * time.Millisecond))
	if msgAt >= 0 {
		t.Fatalf("message out of the partitioned worker delivered at %v, inside the window", msgAt)
	}
	if *probe >= 0 {
		t.Fatalf("read issued inside the outage window completed at %v", *probe)
	}
	env.Run()
	// Healed at 2 s: latency plus serialization at the master's full
	// 50 MB/s ingress, not at a degraded factor.
	want := sim.Time(2*time.Second + network.MsgLatency + msgBytes*time.Second/50_000_000)
	if msgAt != want {
		t.Fatalf("held message delivered at %v, want %v", msgAt, want)
	}
	if *probe < sim.Time(2*time.Second) {
		t.Fatalf("read issued inside the outage completed at %v, before it ended", *probe)
	}
	issued := env.Now()
	probe = storeProbe(env, remote, "w1")
	env.Run()
	if *probe < 0 || *probe-issued > sim.Time(10*time.Millisecond) {
		t.Fatalf("read after the outage issued at %v completed at %v", issued, *probe)
	}
}

// storeProbe issues a remote read from worker now. The returned instant
// stays -1 until the read completes: a read issued during a storage
// outage queues until the outage ends.
func storeProbe(env *sim.Env, remote *store.RemoteKV, worker string) *sim.Time {
	at := sim.Time(-1)
	remote.Get(worker, "probe", func(int64, bool) { at = env.Now() })
	return &at
}

// TestPartitionQueuesAndDrains verifies that control messages sent into a
// partition are not lost: they deliver, in order, once the link heals.
func TestPartitionQueuesAndDrains(t *testing.T) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("a", network.MBps(100), network.MBps(100))
	fab.AddNode("b", network.MBps(100), network.MBps(100))
	fab.SetLinkFactor("b", 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		fab.SendMsg("a", "b", 256, func() { order = append(order, i) })
	}
	env.Run()
	if len(order) != 0 {
		t.Fatalf("messages delivered across a partition: %v", order)
	}
	fab.SetLinkFactor("b", 1)
	env.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("post-heal delivery order %v, want [0 1 2]", order)
	}
}

// TestStoreOutageQueuesOps verifies storage operations issued during an
// outage complete after recovery instead of failing or vanishing.
func TestStoreOutageQueuesOps(t *testing.T) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	fab.AddNode("w0", network.MBps(100), network.MBps(100))
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	remote.Put("w0", "k", 1024, nil) // written before the outage
	env.Run()
	remote.SetAvailable(false)
	putDone, gotBytes := false, int64(-1)
	remote.Put("w0", "k2", 2048, func() { putDone = true })
	remote.Get("w0", "k", func(b int64, ok bool) { gotBytes = b })
	env.Run()
	if putDone || gotBytes != -1 {
		t.Fatal("store operations completed during the outage")
	}
	remote.SetAvailable(true)
	env.Run()
	if !putDone {
		t.Fatal("queued Put never completed after recovery")
	}
	if gotBytes != 1024 {
		t.Fatalf("queued Get returned %d bytes, want 1024", gotBytes)
	}
}

func TestRandomNodeKillsDeterministic(t *testing.T) {
	workers := []string{"w2", "w0", "w1"}
	a := RandomNodeKills(sim.NewRand(7), workers, 3, time.Minute, time.Second, 5*time.Second)
	b := RandomNodeKills(sim.NewRand(7), workers, 3, time.Minute, time.Second, 5*time.Second)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedule lengths %d/%d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed schedules differ at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].At < time.Minute/4 || a[i].At > 3*time.Minute/4 {
			t.Errorf("kill %d at %v, outside mid-run window", i, a[i].At)
		}
		if a[i].Duration < time.Second || a[i].Duration > 5*time.Second {
			t.Errorf("kill %d lasts %v, outside [1s,5s]", i, a[i].Duration)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingWindowsRecoverExactly opens a NodeDown window fully
// inside a StoreOutage window and checks each recovers independently with
// exact counters — overlap must not double-apply, double-recover, or leak
// either fault past its own window.
func TestOverlappingWindowsRecoverExactly(t *testing.T) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	fab.AddNode("w0", network.MBps(100), network.MBps(100))
	n := testNode(env, "w0")
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	hybrid := store.NewHybrid(remote, map[string]*store.MemKV{}, true)
	var log windowLog
	inj := NewInjector(env, map[string]*cluster.Node{"w0": n}, fab, hybrid, log.bus())
	err := inj.Install(Schedule{
		{Kind: StoreOutage, At: time.Second, Duration: 4 * time.Second},          // [1s, 5s)
		{Kind: NodeDown, Node: "w0", At: 2 * time.Second, Duration: time.Second}, // [2s, 3s)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inside both windows: node dead AND store down.
	env.RunUntil(sim.Time(2500 * time.Millisecond))
	probe := storeProbe(env, remote, "w0")
	if !n.Failed() {
		t.Fatal("at 2.5s: node alive inside its window")
	}
	log.check(t, "at 2.5s", 2, 0)
	// Node window closed, outage still open: recovery of the inner window
	// must not drag the outer one shut.
	env.RunUntil(sim.Time(3500 * time.Millisecond))
	if n.Failed() {
		t.Fatal("node still failed after its window closed")
	}
	if *probe >= 0 {
		t.Fatalf("read issued at 2.5s completed at %v: the store was up inside its outage window", *probe)
	}
	log.check(t, "at 3.5s", 2, 1)
	env.Run()
	if *probe < sim.Time(5*time.Second) {
		t.Fatalf("read issued at 2.5s completed at %v, before the outage ended at 5s", *probe)
	}
	issued := env.Now()
	probe = storeProbe(env, remote, "w0")
	env.Run()
	if n.Failed() || *probe < 0 || *probe-issued > sim.Time(10*time.Millisecond) {
		t.Fatalf("faults leaked past their windows: failed=%v, read issued at %v completed at %v",
			n.Failed(), issued, *probe)
	}
	log.check(t, "end", 2, 2)
}

// TestNodeDownAtTracksWindows checks the window query replacement
// placement consults.
func TestNodeDownAtTracksWindows(t *testing.T) {
	env := sim.NewEnv()
	n := testNode(env, "w0")
	inj := NewInjector(env, map[string]*cluster.Node{"w0": n}, nil, nil, nil)
	err := inj.Install(Schedule{
		{Kind: NodeDown, Node: "w0", At: time.Second, Duration: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{500 * time.Millisecond, false},
		{time.Second, true},
		{1500 * time.Millisecond, true},
		{2 * time.Second, false},
		{3 * time.Second, false},
	}
	for _, c := range cases {
		if got := inj.NodeDownAt("w0", sim.Time(c.at)); got != c.want {
			t.Errorf("NodeDownAt(w0, %v) = %v, want %v", c.at, got, c.want)
		}
	}
	if inj.NodeDownAt("other", sim.Time(1500*time.Millisecond)) {
		t.Error("unknown node reported down")
	}
}

// TestEngineDownRequiresAttachedEngines checks Install validation.
func TestEngineDownRequiresAttachedEngines(t *testing.T) {
	env := sim.NewEnv()
	inj := NewInjector(env, nil, nil, nil, nil)
	if err := inj.Install(Schedule{{Kind: EngineDown, At: time.Second}}); err == nil {
		t.Fatal("EngineDown accepted with no engines attached")
	}
}

type fakeEngine struct{ crashes, restarts int }

func (f *fakeEngine) CrashEngine()   { f.crashes++ }
func (f *fakeEngine) RestartEngine() { f.restarts++ }

// TestEngineDownDrivesAttachedEngines verifies the window crashes every
// attached engine and restarts each when it closes.
func TestEngineDownDrivesAttachedEngines(t *testing.T) {
	env := sim.NewEnv()
	inj := NewInjector(env, nil, nil, nil, nil)
	e1, e2 := &fakeEngine{}, &fakeEngine{}
	inj.AttachEngines(e1, e2)
	err := inj.Install(Schedule{{Kind: EngineDown, At: time.Second, Duration: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	env.RunUntil(sim.Time(1500 * time.Millisecond))
	if e1.crashes != 1 || e2.crashes != 1 || e1.restarts != 0 {
		t.Fatalf("mid-window: crashes=%d/%d restarts=%d", e1.crashes, e2.crashes, e1.restarts)
	}
	env.Run()
	if e1.crashes != 1 || e1.restarts != 1 || e2.restarts != 1 {
		t.Fatalf("crashes=%d restarts = %d/%d, want 1, 1/1", e1.crashes, e1.restarts, e2.restarts)
	}
}

type fakeFed struct {
	killed, restarted, stalled []string
	stallDur                   time.Duration
}

func (f *fakeFed) KillEngine(id string) error    { f.killed = append(f.killed, id); return nil }
func (f *fakeFed) RestartEngine(id string) error { f.restarted = append(f.restarted, id); return nil }
func (f *fakeFed) StallEngine(id string, d time.Duration) error {
	f.stalled = append(f.stalled, id)
	f.stallDur = d
	return nil
}
func (f *fakeFed) MemberIDs() []string { return []string{"e0", "e1", "e2"} }

// TestFederationFaultValidation: EngineKill/EngineStall require an attached
// federation, a known member, and (for stalls) a positive duration.
func TestFederationFaultValidation(t *testing.T) {
	env := sim.NewEnv()
	inj := NewInjector(env, nil, nil, nil, nil)
	if err := inj.Install(Schedule{{Kind: EngineKill, Engine: "e0", At: time.Second}}); err == nil {
		t.Fatal("EngineKill accepted with no federation attached")
	}
	inj.AttachFederation(&fakeFed{})
	if err := inj.Install(Schedule{{Kind: EngineKill, Engine: "nope", At: time.Second}}); err == nil {
		t.Fatal("EngineKill accepted an unknown member")
	}
	if err := (Schedule{{Kind: EngineStall, Engine: "e0", At: time.Second}}).Validate(); err == nil {
		t.Fatal("EngineStall accepted without a duration")
	}
	if err := (Schedule{{Kind: EngineKill}}).Validate(); err == nil {
		t.Fatal("EngineKill accepted without an engine")
	}
}

// TestRollingEngineKillsSchedule: the builder kills each member in sorted
// order, one window at a time, and the injector drives kill/restart pairs
// through the federation.
func TestRollingEngineKillsSchedule(t *testing.T) {
	s := RollingEngineKills([]string{"e2", "e0", "e1"}, time.Second, 3*time.Second, 2*time.Second)
	if len(s) != 3 {
		t.Fatalf("%d faults, want 3", len(s))
	}
	wantAt := []time.Duration{time.Second, 4 * time.Second, 7 * time.Second}
	wantEng := []string{"e0", "e1", "e2"}
	for i, f := range s {
		if f.Kind != EngineKill || f.Engine != wantEng[i] || f.At != wantAt[i] || f.Duration != 2*time.Second {
			t.Fatalf("fault %d = %+v", i, f)
		}
	}
	env := sim.NewEnv()
	inj := NewInjector(env, nil, nil, nil, nil)
	fed := &fakeFed{}
	inj.AttachFederation(fed)
	if err := inj.Install(s); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(sim.Time(5 * time.Second))
	if len(fed.killed) != 2 || len(fed.restarted) != 1 {
		t.Fatalf("mid-run: killed=%v restarted=%v", fed.killed, fed.restarted)
	}
	env.Run()
	if len(fed.killed) != 3 || len(fed.restarted) != 3 {
		t.Fatalf("end: killed=%v restarted=%v", fed.killed, fed.restarted)
	}
	for i := range fed.killed {
		if fed.killed[i] != wantEng[i] || fed.restarted[i] != wantEng[i] {
			t.Fatalf("order wrong: killed=%v restarted=%v", fed.killed, fed.restarted)
		}
	}
}

// TestEngineStallDrivesFederation: the stall fault forwards the window
// duration and never calls RestartEngine (the stall self-recovers).
func TestEngineStallDrivesFederation(t *testing.T) {
	env := sim.NewEnv()
	inj := NewInjector(env, nil, nil, nil, nil)
	fed := &fakeFed{}
	inj.AttachFederation(fed)
	err := inj.Install(Schedule{{Kind: EngineStall, Engine: "e1", At: time.Second, Duration: 4 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if len(fed.stalled) != 1 || fed.stalled[0] != "e1" || fed.stallDur != 4*time.Second {
		t.Fatalf("stalled=%v dur=%v", fed.stalled, fed.stallDur)
	}
	if len(fed.killed) != 0 || len(fed.restarted) != 0 {
		t.Fatalf("stall must not kill/restart: %+v", fed)
	}
}
