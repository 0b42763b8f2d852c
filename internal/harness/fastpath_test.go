package harness

import (
	"bytes"
	"testing"
)

func TestFastPathScenarioGates(t *testing.T) {
	rows, err := FastPath(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 modes × 4 variants
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	if err := CheckFastPath(rows); err != nil {
		t.Fatal(err)
	}
	if tab := RenderFastPath(rows); tab.String() == "" {
		t.Fatal("empty fast-path table rendering")
	}
}

func TestFastPathScenarioDeterministic(t *testing.T) {
	r1, err := FastPath(4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FastPath(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		b1, err := r1[i].Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2[i].Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s/%s: same-spec snapshots differ", r1[i].Mode, r1[i].Variant)
		}
	}
}
