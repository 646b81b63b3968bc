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
// across it. The same runs check the phase counters that fleet.Metrics
// exports, over whole periods and over a trailing partial one. The daemon's spill ring has its own race test in
// internal/mayad.
func TestFleetConcurrentObserver(t *testing.T) {
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	// 4010 ends on a partial period: its last ten ticks are counted, but
	// no period is.
	for _, maxTicks := range []int{4000, 4010} {
		eng := fleet.New(fleet.Spec{
			Config:      cfg,
			Kind:        defense.MayaGS,
			Art:         art,
			PeriodTicks: 20,
			Tenants:     32,
			BaseSeed:    0xace,
			NewWorkload: func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
			Guard:       &g,
			MaxTicks:    maxTicks,
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
			t.Fatalf("MaxTicks %d: got %d tenant results, want 32", maxTicks, len(results))
		}
		// The phase counters carry e2ebench's per-layer fleet breakdown:
		// every tenant tick and control period is counted, and each phase
		// took time.
		if got, want := met.Ticks.Value(), uint64(32*maxTicks); got != want {
			t.Fatalf("MaxTicks %d: Ticks = %d, want %d", maxTicks, got, want)
		}
		if got, want := met.Periods.Value(), uint64(maxTicks/20); got != want {
			t.Fatalf("MaxTicks %d: Periods = %d, want %d", maxTicks, got, want)
		}
		for _, ph := range []struct {
			name string
			c    *telemetry.Counter
		}{
			{"MachineNs", met.MachineNs}, {"SenseNs", met.SenseNs},
			{"ControlNs", met.ControlNs}, {"ActuateNs", met.ActuateNs},
		} {
			if ph.c.Value() == 0 {
				t.Errorf("MaxTicks %d: %s = 0 after a metered run", maxTicks, ph.name)
			}
		}
	}
}
