package fleet_test

import (
	"io"
	"sync"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// TestFleetConcurrentObserver steps a fleet on one goroutine while a reader
// on another continuously snapshots and exports the telemetry registry.
// Under -race (the CI race job runs the whole tree) this proves the
// engine's concurrency contract: the registry's internal synchronization
// is the only cross-goroutine seam, and the per-tenant state never leaks
// across it. The same run checks the phase counters that fleet.Metrics
// exports. The daemon's spill ring has its own race test in
// internal/mayad.
func TestFleetConcurrentObserver(t *testing.T) {
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	eng := fleet.New(fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: 20,
		Tenants:     32,
		BaseSeed:    0xace,
		NewWorkload: func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:       &g,
		MaxTicks:    4000,
	})
	reg := telemetry.NewRegistry()
	met := fleet.NewMetrics(reg)
	eng.SetMetrics(met)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			reg.Snapshot()
			if err := reg.WriteJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	results := eng.Run()
	close(done)
	wg.Wait()

	if len(results) != 32 {
		t.Fatalf("got %d tenant results, want 32", len(results))
	}
	// The phase counters carry e2ebench's per-layer fleet breakdown: every
	// tenant tick and control period is counted, and each phase took time.
	if got, want := met.Ticks.Value(), uint64(32*4000); got != want {
		t.Fatalf("Ticks = %d, want %d", got, want)
	}
	if got, want := met.Periods.Value(), uint64(4000/20); got != want {
		t.Fatalf("Periods = %d, want %d", got, want)
	}
	for _, ph := range []struct {
		name string
		c    *telemetry.Counter
	}{
		{"MachineNs", met.MachineNs}, {"SenseNs", met.SenseNs},
		{"ControlNs", met.ControlNs}, {"ActuateNs", met.ActuateNs},
	} {
		if ph.c.Value() == 0 {
			t.Errorf("%s = 0 after a metered run", ph.name)
		}
	}
}
