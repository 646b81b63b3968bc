// Package difftest is the fleet engine's equivalence harness: for any
// (machine config, defense kind, fault plan, seed, tenant count, tick
// count) it runs the lockstep fleet engine and, per tenant, an independent
// sim.Run with the same derived seeds, and asserts the two produce
// bit-for-bit identical traces, flight records, and guard decisions. The
// control loop itself lives in sim.Runner, which both sides drive, and
// both are built from the same scalar pieces (sim.Machine, core.Engine,
// the fault wrappers), so a pass means the fleet's seed derivation,
// wiring, lockstep scheduling and incremental stepping change nothing a
// tenant can observe.
//
// The harness once guarded a batched structure-of-arrays copy of the
// machine model and controller; that copy was removed because it never won
// end to end (45.5 ms against 40.1 ms scalar for 1,000 tenants, and the
// daemon's banks averaged 1.01 tenants). The table tests and the fuzz
// target now pin the fleet's scheduling against sim.Run.
package difftest

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// Case is one differential scenario.
type Case struct {
	Name    string
	Config  sim.Config
	Kind    defense.Kind
	Tenants int
	Ticks   int
	Warmup  int
	Seed    uint64
	Plan    fault.Plan
	// Scale is the per-tenant workload scale (blackscholes); 0 runs the
	// fleet idle.
	Scale float64
	// Flight, when > 0, attaches per-tenant flight recorders of that
	// capacity (Maya kinds).
	Flight int
	// Guard attaches core.DefaultGuard (Maya kinds), exercising the
	// sanitize/hold/reinit decisions under faults.
	Guard bool
}

// designs caches one synthesized artifact per machine config: synthesis is
// the expensive part and equivalence does not depend on design quality, so
// a shortened excitation keeps the suite fast.
var designs struct {
	mu sync.Mutex
	m  map[string]*core.Design
}

// DesignFor returns the cached Maya artifact for cfg.
func DesignFor(cfg sim.Config) (*core.Design, error) {
	designs.mu.Lock()
	defer designs.mu.Unlock()
	if d, ok := designs.m[cfg.Name]; ok {
		return d, nil
	}
	opts := core.DefaultDesignOptions()
	opts.ExcitationTicks = 4000
	d, err := core.DesignFor(cfg, opts)
	if err != nil {
		return nil, err
	}
	if designs.m == nil {
		designs.m = make(map[string]*core.Design)
	}
	designs.m[cfg.Name] = d
	return d, nil
}

func (c Case) newWorkload() workload.Workload {
	if c.Scale <= 0 {
		return workload.Idle{}
	}
	return workload.NewApp("blackscholes").Scale(c.Scale)
}

func (c Case) guard() *core.Guard {
	if !c.Guard {
		return nil
	}
	g := core.DefaultGuard(c.Config)
	return &g
}

// scalarTenant is one tenant's reference run, assembled exactly as the
// fleet assembles it — same derived seeds, same wiring order — but from
// the scalar pieces.
type scalarTenant struct {
	res     sim.RunResult
	targets []float64
	flight  *telemetry.FlightRecorder
	stats   fault.Stats
}

// runScalar runs each tenant independently through the scalar reference
// path.
func runScalar(c Case) ([]scalarTenant, error) {
	var art *core.Design
	if c.Kind.IsMaya() {
		var err error
		if art, err = DesignFor(c.Config); err != nil {
			return nil, err
		}
	}
	d := defense.NewDesign(c.Kind, c.Config, art, 20)
	guard := c.guard()
	out := make([]scalarTenant, c.Tenants)
	for t := 0; t < c.Tenants; t++ {
		ms, ws, ps, fs := fleet.TenantSeeds(c.Seed, t)
		m := sim.NewMachine(c.Config, ms)
		var inj *fault.Injector
		if !c.Plan.Empty() {
			inj = fault.MustNew(c.Plan, fs)
			inj.Attach(m)
		}
		var sensor sim.PowerSensor = sim.NewRAPLSensor(m)
		if inj != nil {
			sensor = inj.Sensor(sensor)
		}
		w := c.newWorkload()
		w.Reset(ws)
		pol := d.Policy(ps)
		var eng *core.Engine
		if c.Kind.IsMaya() {
			eng = pol.(*core.Engine)
			if guard != nil {
				eng.SetGuard(guard)
			}
			if c.Flight > 0 {
				eng.SetFlight(telemetry.NewFlightRecorder(c.Flight))
			}
		}
		if inj != nil {
			pol = inj.Policy(pol)
		}
		res := sim.Run(m, w, pol, sim.RunSpec{
			ControlPeriodTicks: 20,
			MaxTicks:           c.Ticks,
			WarmupTicks:        c.Warmup,
			DefenseSensor:      sensor,
		})
		out[t] = scalarTenant{res: res}
		if eng != nil {
			out[t].targets = eng.Targets
			out[t].flight = eng.Flight()
		}
		if inj != nil {
			out[t].stats = inj.Stats()
		}
	}
	return out, nil
}

// runFleet runs the whole case through the fleet engine in lockstep.
func runFleet(c Case) ([]fleet.TenantResult, error) {
	var art *core.Design
	if c.Kind.IsMaya() {
		var err error
		if art, err = DesignFor(c.Config); err != nil {
			return nil, err
		}
	}
	spec := fleet.Spec{
		Config:         c.Config,
		Kind:           c.Kind,
		Art:            art,
		PeriodTicks:    20,
		Tenants:        c.Tenants,
		BaseSeed:       c.Seed,
		Plan:           c.Plan,
		Guard:          c.guard(),
		FlightCapacity: c.Flight,
		WarmupTicks:    c.Warmup,
		MaxTicks:       c.Ticks,
	}
	if c.Scale > 0 {
		spec.NewWorkload = c.newWorkload
	}
	return fleet.New(spec).Run(), nil
}

// Diff runs both paths and returns nil only if every tenant is bit-for-bit
// identical across every recorded quantity.
func Diff(c Case) error {
	scalar, err := runScalar(c)
	if err != nil {
		return err
	}
	fl, err := runFleet(c)
	if err != nil {
		return err
	}
	if len(scalar) != len(fl) {
		return fmt.Errorf("%s: tenant counts differ: %d vs %d", c.Name, len(scalar), len(fl))
	}
	for t := range scalar {
		if err := diffTenant(scalar[t], fl[t]); err != nil {
			return fmt.Errorf("%s: tenant %d: %w", c.Name, t, err)
		}
	}
	return nil
}

func diffTenant(s scalarTenant, f fleet.TenantResult) error {
	if err := diffFloats("defense samples", s.res.DefenseSamples, f.DefenseSamples); err != nil {
		return err
	}
	if err := diffFloats("mask targets", s.targets, f.Targets); err != nil {
		return err
	}
	if len(s.res.InputTrace) != len(f.InputTrace) {
		return fmt.Errorf("input trace lengths differ: %d vs %d", len(s.res.InputTrace), len(f.InputTrace))
	}
	for i := range s.res.InputTrace {
		sv, fv := s.res.InputTrace[i], f.InputTrace[i]
		if math.Float64bits(sv.FreqGHz) != math.Float64bits(fv.FreqGHz) ||
			math.Float64bits(sv.Idle) != math.Float64bits(fv.Idle) ||
			math.Float64bits(sv.Balloon) != math.Float64bits(fv.Balloon) {
			return fmt.Errorf("input trace[%d] differs: %+v vs %+v", i, sv, fv)
		}
	}
	if s.res.FinishedTick != f.FinishedTick {
		return fmt.Errorf("finished tick differs: %d vs %d", s.res.FinishedTick, f.FinishedTick)
	}
	if s.res.FirstStep != f.FirstStep {
		return fmt.Errorf("first step differs: %d vs %d", s.res.FirstStep, f.FirstStep)
	}
	if err := diffBits("energy", s.res.EnergyJ, f.EnergyJ); err != nil {
		return err
	}
	if err := diffBits("mean power", s.res.AvgPowerW, f.AvgPowerW); err != nil {
		return err
	}
	if err := diffBits("seconds", s.res.Seconds, f.Seconds); err != nil {
		return err
	}
	if s.stats != f.Stats {
		return fmt.Errorf("fault stats differ: %v vs %v", s.stats, f.Stats)
	}
	if (s.flight == nil) != (f.Flight == nil) {
		return fmt.Errorf("flight recorder presence differs")
	}
	if s.flight != nil {
		var sb, fb bytes.Buffer
		if err := s.flight.Flush(&sb); err != nil {
			return fmt.Errorf("scalar flight flush: %w", err)
		}
		if err := f.Flight.Flush(&fb); err != nil {
			return fmt.Errorf("fleet flight flush: %w", err)
		}
		if !bytes.Equal(sb.Bytes(), fb.Bytes()) {
			return fmt.Errorf("flight records differ:\n%s", firstDiffLine(sb.Bytes(), fb.Bytes()))
		}
	}
	return nil
}

func diffFloats(what string, s, f []float64) error {
	if len(s) != len(f) {
		return fmt.Errorf("%s lengths differ: %d vs %d", what, len(s), len(f))
	}
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(f[i]) {
			return fmt.Errorf("%s[%d] differs: %x (%g) vs %x (%g)",
				what, i, math.Float64bits(s[i]), s[i], math.Float64bits(f[i]), f[i])
		}
	}
	return nil
}

func diffBits(what string, s, f float64) error {
	if math.Float64bits(s) != math.Float64bits(f) {
		return fmt.Errorf("%s differs: %x (%g) vs %x (%g)", what, math.Float64bits(s), s, math.Float64bits(f), f)
	}
	return nil
}

// firstDiffLine locates the first JSONL line where two flight flushes
// diverge.
func firstDiffLine(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nscalar: %s\nfleet:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
