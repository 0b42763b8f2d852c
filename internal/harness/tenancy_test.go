package harness

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

func TestTenancyNoisyNeighborGate(t *testing.T) {
	row, err := tenancyMode(engine.ModeWorkerSP)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTenancy([]TenancyRow{row}, 0.9, 0.1); err != nil {
		t.Fatalf("zero-starvation gate tripped: %v", err)
	}
	if len(row.Tenants) != 21 {
		t.Fatalf("tenant count = %d, want 21", len(row.Tenants))
	}
	var noisy TenantOutcome
	for _, tn := range row.Tenants {
		if tn.Admitted+tn.Rejected != tn.Offered {
			t.Fatalf("tenant %s: admitted %d + rejected %d != offered %d",
				tn.Tenant, tn.Admitted, tn.Rejected, tn.Offered)
		}
		if got := tn.Goodput + tn.Deadlined + tn.Failed; got != tn.Admitted {
			t.Fatalf("tenant %s: goodput %d + deadlined %d + failed %d = %d, want admitted %d",
				tn.Tenant, tn.Goodput, tn.Deadlined, tn.Failed, got, tn.Admitted)
		}
		if tn.Noisy {
			noisy = tn
		}
	}
	if noisy.Tenant != "noisy" {
		t.Fatal("noisy tenant missing from outcomes")
	}
	// The misbehaving tenant offered 10x its share; the per-tenant bucket
	// must clip it near its slice, not let it crowd the others out.
	if noisy.Rejected == 0 {
		t.Fatal("noisy tenant at 10x fair share was never rejected")
	}
	if noisy.Admitted > noisy.Offered/4 {
		t.Fatalf("noisy tenant admitted %d of %d offered — bucket not clipping",
			noisy.Admitted, noisy.Offered)
	}
}

func TestTenancySameSeedSnapshotsIdentical(t *testing.T) {
	run := func() []byte {
		row, err := tenancyMode(engine.ModeWorkerSP)
		if err != nil {
			t.Fatal(err)
		}
		data, err := row.Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed tenancy snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty snapshot")
	}
}

func TestTenancyRenderAndCheckErrors(t *testing.T) {
	rows := []TenancyRow{{
		Mode:       engine.ModeWorkerSP,
		Tenants:    []TenantOutcome{{Tenant: "tenant-00", Offered: 100, Goodput: 50}},
		RefGoodput: 100,
		AggGoodput: 50,
	}}
	if err := CheckTenancy(rows, 0.9, 0.1); err == nil {
		t.Fatal("starved tenant passed the gate")
	}
	rows[0].Tenants[0].Goodput = 95
	rows[0].AggGoodput = 95
	rows[0].RefGoodput = 200
	if err := CheckTenancy(rows, 0.9, 0.1); err == nil {
		t.Fatal("aggregate drift passed the gate")
	}
	rows[0].RefGoodput = 100
	if err := CheckTenancy(rows, 0.9, 0.1); err != nil {
		t.Fatalf("healthy row tripped the gate: %v", err)
	}
	if tbl := RenderTenancy(rows); tbl == nil {
		t.Fatal("RenderTenancy returned nil")
	}
}
