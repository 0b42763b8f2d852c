package engine

import (
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
)

// recordPhases attaches a bus to the deployment and returns the executor
// PhaseEvents it publishes, in publish order.
func recordPhases(d *Deployment) *[]obs.PhaseEvent {
	var evs []obs.PhaseEvent
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		if pe, ok := ev.(obs.PhaseEvent); ok {
			evs = append(evs, pe)
		}
	})
	d.SetObserver(bus)
	return &evs
}

func TestTracerRecordsAllPhases(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPhases(d)
	run(t, rt, d)
	// 4 tasks x 4 phases.
	if len(*evs) != 16 {
		t.Fatalf("events = %d, want 16", len(*evs))
	}
	phases := map[obs.Component]int{}
	for _, e := range *evs {
		phases[e.Comp]++
		if e.End < e.Start {
			t.Fatalf("negative span: %+v", e)
		}
		if e.Worker != "w0" && e.Worker != "w1" {
			t.Fatalf("unknown worker %q", e.Worker)
		}
	}
	for _, c := range []obs.Component{obs.CompAcquire, obs.CompFetch, obs.CompExec, obs.CompStore} {
		if phases[c] != 4 {
			t.Fatalf("phase %s count = %d, want 4", c, phases[c])
		}
	}
}

func TestTracerEventsOrdered(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPhases(d)
	run(t, rt, d)
	// Source task "a" phases must run in order acquire->fetch->exec->store,
	// each starting no earlier than the previous one ended.
	var aPhases []obs.PhaseEvent
	for _, e := range *evs {
		if e.Name == "a" {
			aPhases = append(aPhases, e)
		}
	}
	want := []obs.Component{obs.CompAcquire, obs.CompFetch, obs.CompExec, obs.CompStore}
	if len(aPhases) != len(want) {
		t.Fatalf("a phases = %v", aPhases)
	}
	for i, e := range aPhases {
		if e.Comp != want[i] {
			t.Fatalf("a phase %d = %s, want %s", i, e.Comp, want[i])
		}
		if i > 0 && e.Start < aPhases[i-1].End {
			t.Fatalf("a phase %s starts at %v before %s ends at %v", e.Comp, e.Start, aPhases[i-1].Comp, aPhases[i-1].End)
		}
	}
}

func TestTracerForeachReplicaNames(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := VideoLike()
	// Mark the middle nodes as foreach width 2 to exercise replica naming.
	for _, n := range b.Graph.Nodes() {
		if strings.HasPrefix(n.Name, "m") {
			b.Graph.SetWidth(n.ID, 2)
			b.Graph.MarkForeach(n.ID)
		}
	}
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPhases(d)
	run(t, rt, d)
	replicas := map[int]bool{}
	for _, e := range *evs {
		if e.Name == "m0" && e.Comp == obs.CompExec {
			replicas[e.Replica] = true
		}
	}
	if len(replicas) != 2 || !replicas[0] || !replicas[1] {
		t.Fatalf("foreach replica exec spans of m0: %v, want replicas 0 and 1", replicas)
	}
}

func TestNoTracerNoOverhead(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	// No bus attached: must run exactly as before.
	res := run(t, rt, d)
	if res.Latency() <= 0 {
		t.Fatal("run without an observer broken")
	}
}
