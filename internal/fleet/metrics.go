package fleet

import (
	"time"

	"github.com/maya-defense/maya/internal/telemetry"
)

// Metrics instruments a fleet run's tick phases. The phase timers measure
// the host (overhead accounting, like Engine.DecideTime on the scalar
// path); they never feed decisions, and with metrics detached the run
// takes no timestamps at all — which is why the differential harness,
// which runs metrics-free, is unaffected.
type Metrics struct {
	// Ticks counts machine ticks stepped, summed across tenants.
	Ticks *telemetry.Counter
	// Periods counts control periods (one decision per tenant each).
	Periods *telemetry.Counter
	// Tenants records the fleet size of the current run.
	Tenants *telemetry.Gauge
	// MachineNs, SenseNs, ControlNs, ActuateNs accumulate host wall time
	// per fleet tick phase: the machine steps, the sensor reads, the
	// control decisions, and the actuator commits, each summed over
	// tenants.
	MachineNs *telemetry.Counter
	SenseNs   *telemetry.Counter
	ControlNs *telemetry.Counter
	ActuateNs *telemetry.Counter
}

// NewMetrics registers the fleet instruments. Multiple fleets may share a
// registry; counters then aggregate across them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Ticks:     reg.Counter("maya_fleet_ticks_total", "machine ticks stepped across all tenants"),
		Periods:   reg.Counter("maya_fleet_periods_total", "fleet control periods executed"),
		Tenants:   reg.Gauge("maya_fleet_tenants", "tenant count of the current fleet run"),
		MachineNs: reg.Counter("maya_fleet_machine_ns_total", "host ns in the machine steps"),
		SenseNs:   reg.Counter("maya_fleet_sense_ns_total", "host ns in the sensor reads"),
		ControlNs: reg.Counter("maya_fleet_control_ns_total", "host ns in the control decisions"),
		ActuateNs: reg.Counter("maya_fleet_actuate_ns_total", "host ns in the actuator commits"),
	}
}

// clock returns a host timestamp for phase accounting, or 0 with metrics
// detached so the metric-free path takes no timestamps.
func (e *Engine) clock() int64 {
	if e.metrics == nil {
		return 0
	}
	return time.Now().UnixNano() //maya:wallclock fleet phase overhead accounting; never feeds decisions
}
