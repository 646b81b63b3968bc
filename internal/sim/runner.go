package sim

import (
	"slices"

	"github.com/maya-defense/maya/internal/workload"
)

// Policy decides actuator settings at each control period. step counts
// control periods from zero; powerW is the defense sensor's reading for the
// period that just ended. The returned inputs are applied for the next
// period. This is the seam where Baseline, Random Inputs, and the Maya
// controllers plug into the simulation.
type Policy interface {
	Decide(step int, powerW float64) Inputs
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(step int, powerW float64) Inputs

// Decide implements Policy.
func (f PolicyFunc) Decide(step int, powerW float64) Inputs { return f(step, powerW) }

// Sampler couples an attacker-side sensor with its sampling period.
type Sampler struct {
	Sensor      PowerSensor
	PeriodTicks int
	Samples     []float64
}

// RunSpec configures a simulation run.
type RunSpec struct {
	// ControlPeriodTicks is how often the policy runs (20 = 20 ms, §V).
	ControlPeriodTicks int
	// MaxTicks bounds the run length.
	MaxTicks int
	// StopOnFinish ends the run when the workload completes; otherwise the
	// machine keeps idling (and the defense keeps masking) until MaxTicks,
	// which is what hides the completion point in Fig 11d.
	StopOnFinish bool
	// Samplers are attacker-side observers fed during the run.
	Samplers []*Sampler
	// WarmupTicks runs the policy on the idle machine before the workload
	// starts; nothing is recorded and samplers are not fed. It models an
	// always-on defense that an attacker can only observe mid-operation.
	WarmupTicks int
	// DefenseSensor overrides the defense-side power sensor (nil selects a
	// fresh RAPLSensor on the machine, the paper's configuration). This is
	// the seam through which the fault-injection layer interposes a
	// fault.FaultySensor between the machine and the control loop.
	DefenseSensor PowerSensor
}

// RunResult captures everything observable from one run.
type RunResult struct {
	// DefenseSamples holds the defense RAPL reading at each control period.
	DefenseSamples []float64
	// InputTrace holds the commanded inputs chosen at each control period.
	InputTrace []Inputs
	// FinishedTick is the tick (within the recorded window) at which the
	// workload completed (-1 if it did not finish within MaxTicks).
	FinishedTick int64
	// FirstStep is the policy step index whose decision was in force when
	// recording began (> 0 when WarmupTicks ran); policies that log
	// per-decision data (e.g. mask targets) align entry FirstStep+t with
	// DefenseSamples[t].
	FirstStep int
	// EnergyJ is the total true core energy consumed.
	EnergyJ float64
	// AvgPowerW is the mean true core power over the recorded ticks.
	AvgPowerW float64
	// Seconds is the wall-clock duration simulated.
	Seconds float64
}

// Runner is one run of the control loop, advanced a control period at a
// time. NewRunner makes the initial decision and runs the unrecorded
// warmup; each recorded period is then four phases, called in order:
// Advance steps the machine to the next period boundary, Sense reads the
// defense sensor, Decide runs the policy on that reading, and Actuate
// commits the decision. Run drives one Runner to the end; fleet.Engine
// drives many in lockstep, one phase across all of them at a time, so a
// fleet tenant and a solo run execute the same loop.
//
// The run-level aggregates stream as the run goes, so no per-tick series
// is kept: the power sum is a left fold in tick order from 0.0, divided by
// the tick count — exactly signal.Mean over the per-tick powers, bit for
// bit.
type Runner struct {
	m      *Machine
	w      workload.Workload
	p      Policy
	spec   RunSpec
	sensor PowerSensor

	res          RunResult
	startEnergyJ float64
	sumPowerW    float64
	step         int
	tick         int
	pw           float64 // the latest defense reading
	in           Inputs  // the decision on pw
	done         bool
}

// NewRunner makes the policy's initial decision, runs spec.WarmupTicks of
// unrecorded warmup on the idle machine, and arms recording. The workload
// should be freshly Reset by the caller (runs differ by seed).
func NewRunner(m *Machine, w workload.Workload, p Policy, spec RunSpec) *Runner {
	if spec.ControlPeriodTicks <= 0 {
		spec.ControlPeriodTicks = 20
	}
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 1 << 20
	}
	r := &Runner{m: m, w: w, p: p, spec: spec, sensor: spec.DefenseSensor}
	if r.sensor == nil {
		r.sensor = NewRAPLSensor(m)
	}
	r.res.FinishedTick = -1

	// Let the policy choose the initial inputs before any power is read.
	r.in = p.Decide(0, 0)
	m.SetInputs(r.in)

	// Unrecorded warmup: the defense regulates the idle machine.
	var idle workload.Idle
	for tick := 0; tick < spec.WarmupTicks; tick++ {
		// Feed the defense sensor per the PowerSensor contract (a no-op for
		// the default RAPLSensor, whose state lives in the machine).
		r.sensor.Observe(m.Step(idle))
		if (tick+1)%spec.ControlPeriodTicks == 0 {
			r.pw = r.sensor.ReadW()
			r.Decide()
			m.SetInputs(r.in)
		}
	}

	r.startEnergyJ = m.TrueEnergyJ()
	r.res.FirstStep = r.step
	if !spec.StopOnFinish {
		r.sizeSeries()
	}
	r.res.InputTrace = append(r.res.InputTrace, m.Inputs())
	return r
}

// sizeSeries allocates every recorded series at its final length once. A
// run that cannot stop early reads out exactly one defense sample per
// whole control period, one input vector per sample plus the initial one,
// and one sampler reading per whole sampler period; a StopOnFinish run's
// length depends on the workload, so its series grow as they go.
func (r *Runner) sizeSeries() {
	periods := r.spec.MaxTicks / r.spec.ControlPeriodTicks
	r.res.DefenseSamples = make([]float64, 0, periods)
	r.res.InputTrace = make([]Inputs, 0, periods+1)
	for _, s := range r.spec.Samplers {
		if s.PeriodTicks > 0 {
			s.Samples = slices.Grow(s.Samples, r.spec.MaxTicks/s.PeriodTicks)
		}
	}
}

// Advance steps the machine through the recorded run — feeding the
// defense sensor and the samplers and noting when the workload finishes —
// up to the next control-period boundary. It reports whether it reached
// one; if so, Sense, Decide and Actuate complete the period. It returns
// false when the run ends first: at MaxTicks off a boundary, or when the
// workload finishes under StopOnFinish, whose final partial period it then
// reads out for accounting. It must not be called once Done.
func (r *Runner) Advance() bool {
	m, w, spec := r.m, r.w, &r.spec
	for r.tick < spec.MaxTicks {
		res := m.Step(w)
		r.sumPowerW += res.PowerW
		r.sensor.Observe(res)
		r.tick++
		for _, s := range spec.Samplers {
			s.Sensor.Observe(res)
			if s.PeriodTicks > 0 && r.tick%s.PeriodTicks == 0 {
				s.Samples = append(s.Samples, s.Sensor.ReadW())
			}
		}
		if res.Finished && r.res.FinishedTick < 0 {
			r.res.FinishedTick = int64(r.tick)
			if spec.StopOnFinish {
				r.Sense()
				r.done = true
				return false
			}
		}
		if r.tick%spec.ControlPeriodTicks == 0 {
			r.done = r.tick == spec.MaxTicks
			return true
		}
	}
	r.done = true
	return false
}

// Sense reads the defense sensor at the period boundary and records the
// reading.
func (r *Runner) Sense() {
	r.pw = r.sensor.ReadW()
	r.res.DefenseSamples = append(r.res.DefenseSamples, r.pw)
}

// Decide advances the control step and runs the policy on the latest
// reading.
func (r *Runner) Decide() {
	r.step++
	r.in = r.p.Decide(r.step, r.pw)
}

// Actuate commits the decision to the machine and records the inputs in
// force for the next period.
func (r *Runner) Actuate() {
	r.m.SetInputs(r.in)
	r.res.InputTrace = append(r.res.InputTrace, r.m.Inputs())
}

// Done reports whether the run has ended: MaxTicks consumed, or the
// workload finished under StopOnFinish.
func (r *Runner) Done() bool { return r.done }

// Result returns the run so far: once Done, exactly what Run returns;
// earlier, a bit-identical prefix of it (a daemon draining mid-run). The
// slices alias the runner's.
func (r *Runner) Result() RunResult {
	res := r.res
	res.EnergyJ = r.m.TrueEnergyJ() - r.startEnergyJ
	if r.tick > 0 {
		res.AvgPowerW = r.sumPowerW / float64(r.tick)
	}
	res.Seconds = float64(r.tick) * r.m.Config().TickSeconds
	return res
}

// Step reports the control-step counter, warmup steps included.
func (r *Runner) Step() int { return r.step }

// Tick reports how many recorded machine ticks have run.
func (r *Runner) Tick() int { return r.tick }

// Reading returns the latest defense reading: after Sense, the sample it
// just recorded.
func (r *Runner) Reading() float64 { return r.pw }

// Run drives machine m under workload w and policy p according to spec,
// one control period at a time, and returns the finished result. The
// workload should be freshly Reset by the caller (runs differ by seed).
func Run(m *Machine, w workload.Workload, p Policy, spec RunSpec) RunResult {
	r := NewRunner(m, w, p, spec)
	for !r.Done() {
		if r.Advance() {
			r.Sense()
			r.Decide()
			r.Actuate()
		}
	}
	return r.Result()
}

// RecordDemands executes w on a fresh baseline machine for the given number
// of ticks and returns the demand offered at each tick. Unlike
// workload.Record (which samples demands without running them), this
// captures phase progression: the trace reflects the workload as a real
// profiler would see it executing at full speed.
func RecordDemands(cfg Config, w workload.Workload, ticks int, seed uint64) []workload.Demand {
	m := NewMachine(cfg, seed)
	out := make([]workload.Demand, 0, ticks)
	for i := 0; i < ticks; i++ {
		out = append(out, w.Demand())
		// Demand consumed one tick of the workload's clock; step the
		// machine with an equivalent-demand shim so work advances at the
		// recorded rate.
		m.Step(replayShim{d: out[len(out)-1], w: w})
	}
	return out
}

// replayShim lets RecordDemands feed the machine the already-sampled demand
// while routing progress back to the original workload.
type replayShim struct {
	d workload.Demand
	w workload.Workload
}

func (s replayShim) Name() string            { return s.w.Name() }
func (s replayShim) Demand() workload.Demand { return s.d }
func (s replayShim) Advance(v float64) bool  { return s.w.Advance(v) }
func (s replayShim) Done() bool              { return s.w.Done() }
func (s replayShim) TotalWork() float64      { return s.w.TotalWork() }
func (s replayShim) Reset(seed uint64)       { s.w.Reset(seed) }

// BaselinePolicy runs the machine at maximum frequency with no idle
// injection and no balloon — the insecure high-performance Baseline of
// Table V.
type BaselinePolicy struct {
	Freq float64
}

// NewBaselinePolicy returns a baseline policy for the machine config.
func NewBaselinePolicy(cfg Config) *BaselinePolicy {
	return &BaselinePolicy{Freq: cfg.FmaxGHz}
}

// Decide implements Policy.
func (b *BaselinePolicy) Decide(int, float64) Inputs {
	return Inputs{FreqGHz: b.Freq}
}
