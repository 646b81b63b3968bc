package fleet_test

import (
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

const benchTenants = 1000

func benchDesign(b *testing.B) *core.Design {
	b.Helper()
	art, err := difftest.DesignFor(sim.Sys1())
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func benchSpec(art *core.Design, ticks int) fleet.Spec {
	cfg := sim.Sys1()
	g := core.DefaultGuard(cfg)
	return fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: 20,
		Tenants:     benchTenants,
		BaseSeed:    7,
		NewWorkload: func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:       &g,
		MaxTicks:    ticks,
	}
}

// BenchmarkFleetTick measures full control periods — 20 machine ticks,
// sensor reads, one decision and actuation per tenant — for 1000 tenants
// through the fleet engine. Construction is excluded; each iteration runs
// a fresh 10-period fleet so the cost reported per op is 10 periods of
// steady-state work.
func BenchmarkFleetTick(b *testing.B) {
	art := benchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := fleet.New(benchSpec(art, 200))
		b.StartTimer()
		eng.Run()
	}
}
