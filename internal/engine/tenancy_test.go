package engine

import (
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTenantThreadsThroughEventsAndJournal runs one tenant-attributed
// invocation in both modes and asserts the label survives the whole path:
// every InvocationEvent and every committed journal record carries it.
func TestTenantThreadsThroughEventsAndJournal(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		d := durableDeploy(t, rt, mode)
		bus := obs.NewBus()
		var invEvents []obs.InvocationEvent
		bus.Subscribe(func(ev obs.Event) {
			if e, ok := ev.(obs.InvocationEvent); ok {
				invEvents = append(invEvents, e)
			}
		})
		d.SetObserver(bus)
		var res Result
		got := false
		d.InvokeOpts(InvokeOptions{Tenant: "acme"}, func(r Result) { res, got = r, true })
		rt.Env.Run()
		if !got || res.Failed {
			t.Fatalf("%v: invocation did not complete cleanly (got=%v res=%+v)", mode, got, res)
		}
		if len(invEvents) == 0 {
			t.Fatalf("%v: no invocation events", mode)
		}
		for _, e := range invEvents {
			if e.Tenant != "acme" {
				t.Fatalf("%v: invocation event lost tenant: %+v", mode, e)
			}
		}
		entries := d.Journal().Entries()
		if len(entries) == 0 {
			t.Fatalf("%v: no journal entries", mode)
		}
		for _, en := range entries {
			if en.Tenant != "acme" {
				t.Fatalf("%v: journal record lost tenant: %+v", mode, en.Record)
			}
		}
	}
}

// TestUntenantedInvocationUnchanged pins the compatibility contract: with
// no tenant set, events and journal records carry the empty tenant.
func TestUntenantedInvocationUnchanged(t *testing.T) {
	rt := rig(2, network.MBps(50))
	d := durableDeploy(t, rt, ModeWorkerSP)
	res := run(t, rt, d)
	if res.Failed {
		t.Fatal("invocation failed")
	}
	for _, en := range d.Journal().Entries() {
		if en.Tenant != "" {
			t.Fatalf("untenanted run produced tenant-labelled record: %+v", en.Record)
		}
	}
}

// TestAdoptionPreservesTenant crashes the owning engine before any step
// commits and adopts the invocation on a second engine with the tenant
// carried in the AdoptSpec (as the federation does): the resumed steps'
// journal records and events on the adopter must keep the label.
func TestAdoptionPreservesTenant(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	jrA := journal.New(rt.Env, journal.Config{})
	jrB := journal.New(rt.Env, journal.Config{})
	place := placeRoundRobin(b, "w0", "w1")
	dA, err := NewDeployment(rt, b, place, Options{Mode: ModeWorkerSP, Data: DataStore, Journal: jrA})
	if err != nil {
		t.Fatal(err)
	}
	dB, err := NewDeployment(rt, b, place, Options{Mode: ModeWorkerSP, Data: DataStore, Journal: jrB})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	var tenants []string
	bus.Subscribe(func(ev obs.Event) {
		if e, ok := ev.(obs.InvocationEvent); ok {
			tenants = append(tenants, e.Tenant)
		}
	})
	dB.SetObserver(bus)

	got := false
	done := func(r Result) { got = true }
	dA.InvokeOpts(InvokeOptions{Tenant: "acme"}, done)
	// Crash A inside source a's cold start: nothing has committed yet, so
	// the adopter re-dispatches the whole invocation.
	rt.Env.RunUntil(sim.Time(time.Millisecond))
	dA.CrashEngine()
	dA.DropInvocations(dA.liveInvIDs())

	view := journal.NewView(jrA, jrB)
	dB.AdoptInvocation(AdoptSpec{ID: 0, Start: 0, Tenant: "acme", Done: done},
		view.CommittedSteps(0))
	rt.Env.Run()
	if !got {
		t.Fatal("adopted invocation never completed")
	}
	entries := jrB.Entries()
	if len(entries) == 0 {
		t.Fatal("adopter committed nothing")
	}
	for _, en := range entries {
		if en.Tenant != "acme" {
			t.Fatalf("adopted journal record lost tenant: %+v", en.Record)
		}
	}
	if len(tenants) == 0 {
		t.Fatal("adopter published no invocation events")
	}
	for _, tn := range tenants {
		if tn != "acme" {
			t.Fatal("adopter invocation event lost tenant")
		}
	}
}
