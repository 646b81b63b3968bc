package fleet_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

func churnSpec(t *testing.T, tenants int, seedAt func(int) (uint64, uint64, uint64, uint64)) fleet.Spec {
	t.Helper()
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	return fleet.Spec{
		Config:         cfg,
		Kind:           defense.MayaGS,
		Art:            art,
		PeriodTicks:    20,
		Tenants:        tenants,
		BaseSeed:       0xc4a2,
		SeedAt:         seedAt,
		NewWorkload:    func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:          &g,
		FlightCapacity: 40/20 + 400/20 + 8,
		WarmupTicks:    40,
		MaxTicks:       400,
	}
}

// TestFleetSeedAtMatchesSoloRun pins the SeedAt override: a one-slot fleet
// carrying TenantSeeds(S, I) must reproduce, bit for bit, tenant I of a
// plain BaseSeed=S fleet — the property cmd/mayad relies on when it runs
// each tenant as its own one-slot engine.
func TestFleetSeedAtMatchesSoloRun(t *testing.T) {
	const base, index = 0x5eed, 5
	ref := fleet.New(churnSpec(t, index+1, func(tn int) (uint64, uint64, uint64, uint64) {
		return fleet.TenantSeeds(base, tn)
	})).Run()

	solo := fleet.New(churnSpec(t, 1, func(int) (uint64, uint64, uint64, uint64) {
		return fleet.TenantSeeds(base, index)
	})).Run()

	assertTenantEqual(t, index, solo[0], ref[index])
}

func assertTenantEqual(t *testing.T, tn int, got, want fleet.TenantResult) {
	t.Helper()
	if len(got.DefenseSamples) != len(want.DefenseSamples) {
		t.Fatalf("tenant %d: %d samples vs %d", tn, len(got.DefenseSamples), len(want.DefenseSamples))
	}
	for i := range got.DefenseSamples {
		if got.DefenseSamples[i] != want.DefenseSamples[i] {
			t.Fatalf("tenant %d sample %d: %v != %v", tn, i, got.DefenseSamples[i], want.DefenseSamples[i])
		}
	}
	if math.Float64bits(got.AvgPowerW) != math.Float64bits(want.AvgPowerW) {
		t.Fatalf("tenant %d mean power %v != %v", tn, got.AvgPowerW, want.AvgPowerW)
	}
	if math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) {
		t.Fatalf("tenant %d seconds %v != %v", tn, got.Seconds, want.Seconds)
	}
	if got.EnergyJ != want.EnergyJ {
		t.Fatalf("tenant %d energy %v != %v", tn, got.EnergyJ, want.EnergyJ)
	}
	var gb, wb bytes.Buffer
	if got.Flight != nil || want.Flight != nil {
		if err := got.Flight.Flush(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Flight.Flush(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("tenant %d flight traces differ", tn)
		}
	}
	var gc, wc bytes.Buffer
	if err := fleet.WriteCSV(&gc, []fleet.TenantResult{got}, []int{tn}); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteCSV(&wc, []fleet.TenantResult{want}, []int{tn}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gc.Bytes(), wc.Bytes()) {
		t.Fatalf("tenant %d CSV exports differ", tn)
	}
}
