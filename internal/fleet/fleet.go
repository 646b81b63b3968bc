// Package fleet steps many defended machines in one process, in lockstep.
// Each tenant slot holds exactly the scalar pieces an independent run is
// built from — a sim.Machine, its RAPL sensor, a workload, and the defense
// policy (a core.Engine for the Maya kinds), with a fault.Injector wrapped
// around the machine, sensor and policy when a plan is set — and one
// sim.Runner that drives them. The control loop lives in sim; the fleet
// only schedules it: one control period runs each of the runner's four
// phases (machine ticks, sensor read, decision, actuation) across every
// slot before the next. On top of that the engine adds only what a fleet
// needs: per-tenant seed derivation (TenantSeeds, Spec.SeedAt),
// incremental stepping (Start, StepPeriod, Results) and per-phase
// telemetry (Metrics).
//
// Every tenant's result is bit-identical to sim.Run over the same pieces
// with the same seeds. The difftest subpackage checks that across all
// defenses and fault plans; golden_test.go pins a committed 16-tenant
// trace.
//
// An earlier version kept a second, structure-of-arrays copy of the machine
// model and the controller that stepped all tenants as batched kernels. It
// was removed because it never won end to end. For 1,000 tenants over 10
// periods it took 45.5 ms against 40.1 ms for independent scalar runs. At
// one slot, the shape the daemon runs every tenant in, a batched run took
// 527–611 µs and 146 allocations against 400–463 µs and 82 allocations for
// sim.Run.
package fleet

import (
	"fmt"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// tenantDomain separates per-tenant seed derivation from other users of
// rng.ChildSeed on the same base seed.
const tenantDomain = 0xf1ee7 // "FLEET"

// TenantSeeds derives tenant t's four independent run seeds from the fleet
// base seed: machine noise, workload phase, policy secret, and fault
// streams. The scalar reference run for tenant t must use exactly these
// seeds — the differential harness does — and the derivation is pure, so
// seeds never depend on fleet size or construction order.
func TenantSeeds(base uint64, t int) (machine, work, policy, faults uint64) {
	tb := rng.ChildSeed(rng.ChildSeed(base, tenantDomain), uint64(t))
	return rng.ChildSeed(tb, 0), rng.ChildSeed(tb, 1), rng.ChildSeed(tb, 2), rng.ChildSeed(tb, 3)
}

// Spec configures a fleet run: one machine configuration and defense kind
// across Tenants machines, each with its own derived seeds, workload
// instance, and fault injector.
type Spec struct {
	Config sim.Config
	Kind   defense.Kind
	// Art is the synthesized Maya artifact; required for the Maya kinds,
	// ignored otherwise.
	Art *core.Design
	// PeriodTicks is the control period (default 20, the paper's 20 ms).
	PeriodTicks int
	Tenants     int
	// BaseSeed roots every tenant's seed derivation (see TenantSeeds).
	BaseSeed uint64
	// SeedAt, when non-nil, overrides per-tenant seed derivation: it
	// returns slot t's four run seeds in TenantSeeds order. This is how a
	// daemon runs tenant (S, I) as a one-slot fleet carrying
	// TenantSeeds(S, I), bit-identical to slot I of a BaseSeed=S fleet.
	// Nil derives TenantSeeds(BaseSeed, t).
	SeedAt func(t int) (machine, work, policy, faults uint64)
	// NewWorkload builds one tenant's workload (it is Reset with the
	// tenant's workload seed). Nil runs every tenant idle.
	NewWorkload func() workload.Workload
	// Plan, when non-empty, attaches a per-tenant fault injector seeded
	// with the tenant's fault seed.
	Plan fault.Plan
	// Guard, when non-nil, is installed on every tenant's engine (Maya
	// kinds only, like the scalar path).
	Guard *core.Guard
	// FlightCapacity, when > 0, attaches a flight recorder of that
	// capacity to every tenant's engine (Maya kinds only).
	FlightCapacity int
	// WarmupTicks and MaxTicks mirror sim.RunSpec: an unrecorded idle
	// warmup, then the recorded run.
	WarmupTicks int
	MaxTicks    int
}

// TenantResult is one tenant's view of a fleet run: exactly the
// sim.RunResult a scalar run produces, plus the Maya-side artifacts.
type TenantResult struct {
	sim.RunResult
	// Targets aliases the tenant engine's mask-target log (Maya kinds).
	Targets []float64
	// Flight is the tenant's flight recorder, if one was attached.
	Flight *telemetry.FlightRecorder
	// Stats counts the faults the tenant's injector fired.
	Stats fault.Stats
}

// slot is one tenant: the pieces sim.Run would drive, wired the same way,
// and, from Start on, the sim.Runner driving them.
type slot struct {
	m      *sim.Machine
	sensor sim.PowerSensor
	work   workload.Workload
	// pol is the tenant's policy, fault-wrapped when a plan is set; eng is
	// the Maya engine inside it (nil for the other kinds).
	pol sim.Policy
	eng *core.Engine
	inj *fault.Injector
	run *sim.Runner
}

// Engine is one fleet in flight. Like the scalar engine it is single-
// goroutine: one caller owns it; concurrent observers read only through
// the telemetry registry (see race tests).
type Engine struct {
	spec  Spec
	slots []slot

	metrics *Metrics
}

// New assembles a fleet. It panics on an invalid spec (like sim.NewMachine
// on an invalid config).
func New(spec Spec) *Engine {
	if spec.Tenants <= 0 {
		panic("fleet: Spec.Tenants must be positive")
	}
	// NewDesign and sim.NewRunner default a zero PeriodTicks and MaxTicks,
	// and NewDesign panics on a Maya kind without an artifact.
	d := defense.NewDesign(spec.Kind, spec.Config, spec.Art, spec.PeriodTicks)
	seedAt := spec.SeedAt
	if seedAt == nil {
		seedAt = func(t int) (uint64, uint64, uint64, uint64) {
			return TenantSeeds(spec.BaseSeed, t)
		}
	}

	e := &Engine{spec: spec, slots: make([]slot, spec.Tenants)}
	for t := range e.slots {
		s := &e.slots[t]
		ms, ws, ps, fs := seedAt(t)
		s.m = sim.NewMachine(spec.Config, ms)
		if !spec.Plan.Empty() {
			s.inj = fault.MustNew(spec.Plan, fs)
			s.inj.Attach(s.m)
		}
		s.sensor = sim.NewRAPLSensor(s.m)
		if s.inj != nil {
			s.sensor = s.inj.Sensor(s.sensor)
		}

		if spec.NewWorkload != nil {
			s.work = spec.NewWorkload()
			s.work.Reset(ws)
		} else {
			s.work = workload.Idle{}
		}

		s.pol = d.Policy(ps)
		if spec.Kind.IsMaya() {
			eng, ok := s.pol.(*core.Engine)
			if !ok {
				panic(fmt.Sprintf("fleet: %v policy is %T, not *core.Engine", spec.Kind, s.pol))
			}
			if spec.Guard != nil {
				eng.SetGuard(spec.Guard)
			}
			if spec.FlightCapacity > 0 {
				eng.SetFlight(telemetry.NewFlightRecorder(spec.FlightCapacity))
			}
			s.eng = eng
		}
		if s.inj != nil {
			s.pol = s.inj.Policy(s.pol)
		}
	}
	return e
}

// SetMetrics attaches fleet telemetry (nil detaches).
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// Tenants returns the fleet size.
func (e *Engine) Tenants() int { return e.spec.Tenants }

// Run executes the fleet to MaxTicks and returns one result per tenant,
// each bit-identical to sim.Run over the same pieces. Run is Start +
// StepPeriod-to-exhaustion + Results; incremental callers (cmd/mayad's
// shard scheduler) drive the three directly so many runs can interleave.
func (e *Engine) Run() []TenantResult {
	e.Start()
	for e.StepPeriod() {
	}
	return e.Results()
}

// Start hands every slot to a sim.Runner, which makes the initial decision
// and runs the unrecorded warmup; after Start, StepPeriod advances the
// recorded run one control period at a time. Start may be called once.
func (e *Engine) Start() {
	if e.slots[0].run != nil {
		panic("fleet: Engine.Start called twice")
	}
	if e.metrics != nil {
		e.metrics.Tenants.Set(float64(e.spec.Tenants))
	}
	for t := range e.slots {
		s := &e.slots[t]
		s.run = sim.NewRunner(s.m, s.work, s.pol, sim.RunSpec{
			ControlPeriodTicks: e.spec.PeriodTicks,
			MaxTicks:           e.spec.MaxTicks,
			WarmupTicks:        e.spec.WarmupTicks,
			DefenseSensor:      s.sensor,
		})
	}
}

// StepPeriod advances the recorded run by one control period (or the
// trailing partial period when MaxTicks is not a period multiple) and
// reports whether ticks remain. It runs each of the period's phases —
// machine, sense, control, actuate — across every slot before the next,
// and with metrics attached times each phase once. It must follow Start.
func (e *Engine) StepPeriod() bool {
	lead := e.slots[0].run
	if lead == nil {
		panic("fleet: Engine.StepPeriod before Start")
	}
	if lead.Done() {
		return false
	}
	t0, tick0 := e.clock(), lead.Tick()
	// Every slot is at the same tick, so each reports the same boundary.
	boundary := false
	for t := range e.slots {
		boundary = e.slots[t].run.Advance()
	}
	t1 := e.clock()
	if e.metrics != nil {
		e.metrics.Ticks.Add(uint64((lead.Tick() - tick0) * e.spec.Tenants))
		e.metrics.MachineNs.Add(uint64(t1 - t0))
	}
	if boundary {
		for t := range e.slots {
			e.slots[t].run.Sense()
		}
		t2 := e.clock()
		for t := range e.slots {
			e.slots[t].run.Decide()
		}
		t3 := e.clock()
		for t := range e.slots {
			e.slots[t].run.Actuate()
		}
		if e.metrics != nil {
			e.metrics.Periods.Inc()
			e.metrics.SenseNs.Add(uint64(t2 - t1))
			e.metrics.ControlNs.Add(uint64(t3 - t2))
			e.metrics.ActuateNs.Add(uint64(e.clock() - t3))
		}
	}
	return !lead.Done()
}

// Results returns one result per tenant slot: exactly what Run returns
// when the run consumed MaxTicks, and a bit-identical prefix of that when
// called early (a daemon draining mid-run). It must follow Start.
func (e *Engine) Results() []TenantResult {
	if e.slots[0].run == nil {
		panic("fleet: Engine.Results before Start")
	}
	res := make([]TenantResult, len(e.slots))
	for t := range e.slots {
		s := &e.slots[t]
		res[t].RunResult = s.run.Result()
		if s.eng != nil {
			res[t].Targets = s.eng.Targets
			res[t].Flight = s.eng.Flight()
		}
		if s.inj != nil {
			res[t].Stats = s.inj.Stats()
		}
	}
	return res
}

// Reading returns slot t's latest defense reading: after a StepPeriod that
// crossed a period boundary, the sample it just recorded. Reading, Step
// and Tick must follow Start.
func (e *Engine) Reading(t int) float64 { return e.slots[t].run.Reading() }

// Step reports the control-step counter (warmup steps included). Slots
// step in lockstep, so slot 0 speaks for the fleet.
func (e *Engine) Step() int { return e.slots[0].run.Step() }

// Tick reports how many recorded machine ticks have run, up to
// Spec.MaxTicks.
func (e *Engine) Tick() int { return e.slots[0].run.Tick() }
