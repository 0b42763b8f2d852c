package harness

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

// overloadWorkerSP is the default sweep under WorkerSP alone (well under
// a second of wall clock); the default window is long enough that the 2x
// point is deep into steady-state congestion.
func overloadWorkerSP(t *testing.T, noAdmission bool) []OverloadRow {
	t.Helper()
	sat, err := overloadSaturation(engine.ModeWorkerSP)
	if err != nil {
		t.Fatal(err)
	}
	return workerSP(t, overloadMultipliers, func(mode engine.Mode, m float64) (OverloadRow, error) {
		return overloadOne(mode, sat, m, overloadWindow, !noAdmission)
	})
}

func TestOverloadGracefulDegradationWithControls(t *testing.T) {
	rows := overloadWorkerSP(t, false)
	if err := CheckOverload(rows, 0.7); err != nil {
		t.Fatalf("controls on, gate tripped: %v", err)
	}
	last := rows[len(rows)-1]
	if last.Multiplier != 2 {
		t.Fatalf("last multiplier = %v, want 2", last.Multiplier)
	}
	if last.Rejected == 0 {
		t.Fatal("2x saturation with admission on rejected nothing")
	}
	if last.Admitted+last.Rejected != last.Offered {
		t.Fatalf("admitted %d + rejected %d != offered %d", last.Admitted, last.Rejected, last.Offered)
	}
	// Every admitted invocation is accounted for — none lost.
	if got := last.Goodput + last.Deadlined + last.Failed; got != last.Admitted {
		t.Fatalf("goodput %d + deadlined %d + failed %d = %d, want admitted %d",
			last.Goodput, last.Deadlined, last.Failed, got, last.Admitted)
	}
}

func TestOverloadCounterfactualCollapses(t *testing.T) {
	rows := overloadWorkerSP(t, true)
	if err := CheckOverload(rows, 0.7); err == nil {
		t.Fatal("no-admission sweep passed the goodput gate; expected collapse past saturation")
	}
	last := rows[len(rows)-1]
	if last.Rejected != 0 {
		t.Fatalf("no-admission run rejected %d arrivals", last.Rejected)
	}
	if last.Deadlined == 0 && last.Failed == 0 {
		t.Fatal("2x saturation without admission shed nothing — not saturated")
	}
}

func TestOverloadSameSeedSnapshotsIdentical(t *testing.T) {
	run := func() []byte {
		rows := overloadWorkerSP(t, false)
		data, err := rows[len(rows)-1].Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed overload snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty snapshot")
	}
}
