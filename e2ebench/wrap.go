package main

import (
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// The wrappers below time one layer each inside a traced collection run.
// They only observe: every call is forwarded unchanged, so the run's
// samples, and hence the figure's accuracies, match the untraced suite.

// layerClock sums one layer's timed calls in one run (single goroutine).
type layerClock struct{ ns, calls int64 }

func (c *layerClock) add(ns int64) {
	c.ns += ns
	c.calls++
}

// net is the layer's time with the timer's own cost per call removed.
func (c layerClock) net(clockNS int64) int64 { return max(c.ns-c.calls*clockNS, 0) }

// runLayers is one collection run's per-layer sums.
type runLayers struct {
	tr     *telemetry.Tracer
	parent telemetry.SpanContext

	ticks, decisions int64
	maya             bool

	workload, rapl, outlet, defSensor layerClock
	mask, control, actuate, policy    layerClock
}

// fold adds the run's sums into the iteration totals. The run's self time
// is its duration minus what its wrapped children took; the children run
// one after another on the run's goroutine, so their sum is the time they
// cover.
func (a *runLayers) fold(lay *figureLayers, durNS int64) {
	children := []layerClock{a.workload, a.rapl, a.outlet, a.defSensor, a.mask, a.control, a.actuate, a.policy}
	c := lay.clockNS
	var childNS, calls int64
	for _, lc := range children {
		childNS += lc.ns
		calls += lc.calls
	}
	// Each timed call reads the clock twice: one read falls inside the
	// child's interval (net removes it), the other in the run's own time.
	lay.simSelfNS.Add(max(durNS-childNS-calls*c, 0))
	lay.ticks.Add(a.ticks)
	lay.periods.Add(a.decisions - 1) // the first decision precedes any period
	if a.maya {
		lay.mayaPeriods.Add(a.decisions - 1)
	} else {
		lay.otherPeriods.Add(a.decisions - 1)
	}
	lay.workloadNS.Add(a.workload.net(c))
	lay.raplNS.Add(a.rapl.net(c))
	lay.outletNS.Add(a.outlet.net(c))
	lay.defSensorNS.Add(a.defSensor.net(c))
	lay.maskNS.Add(a.mask.net(c))
	lay.controlNS.Add(a.control.net(c))
	lay.actNS.Add(a.actuate.net(c))
	lay.policyNS.Add(a.policy.net(c))
}

// clockCost estimates the tracer clock's own cost: the median gap between
// back-to-back reads, which every timed call also pays once.
func clockCost(tr *telemetry.Tracer) int64 {
	gaps := make([]float64, 4001)
	for i := range gaps {
		t0 := tr.Clock()
		gaps[i] = float64(tr.Clock() - t0)
	}
	return int64(median(gaps))
}

// timedWorkload times Demand and Advance, the calls the machine makes
// into the workload on every tick.
type timedWorkload struct {
	w  workload.Workload
	tr *telemetry.Tracer
	lc *layerClock
}

func (t *timedWorkload) Name() string       { return t.w.Name() }
func (t *timedWorkload) Done() bool         { return t.w.Done() }
func (t *timedWorkload) TotalWork() float64 { return t.w.TotalWork() }
func (t *timedWorkload) Reset(seed uint64)  { t.w.Reset(seed) }

func (t *timedWorkload) Demand() workload.Demand {
	t0 := t.tr.Clock()
	d := t.w.Demand()
	t.lc.add(t.tr.Clock() - t0)
	return d
}

func (t *timedWorkload) Advance(work float64) bool {
	t0 := t.tr.Clock()
	done := t.w.Advance(work)
	t.lc.add(t.tr.Clock() - t0)
	return done
}

// timedSensor times a power sensor's Observe and ReadW; ticks, when set,
// counts Observe calls (the defense sensor sees every tick).
type timedSensor struct {
	s     sim.PowerSensor
	tr    *telemetry.Tracer
	lc    *layerClock
	ticks *int64
}

func (t *timedSensor) Observe(r sim.StepResult) {
	t0 := t.tr.Clock()
	t.s.Observe(r)
	t.lc.add(t.tr.Clock() - t0)
	if t.ticks != nil {
		*t.ticks++
	}
}

func (t *timedSensor) ReadW() float64 {
	t0 := t.tr.Clock()
	w := t.s.ReadW()
	t.lc.add(t.tr.Clock() - t0)
	return w
}

// wrapPolicy times a run's policy: a Maya engine phase by phase, any
// other policy as one Decide call.
func wrapPolicy(p sim.Policy, a *runLayers) sim.Policy {
	if eng, ok := p.(*core.Engine); ok {
		a.maya = true
		return &enginePolicy{eng: eng, a: a}
	}
	return &timedPolicy{p: p, a: a}
}

// enginePolicy runs one engine step exactly as core.Engine.Decide does —
// BeginStep, the controller step, FinishStep — with a timer per phase and
// a span tree for sampled periods.
type enginePolicy struct {
	eng *core.Engine
	a   *runLayers
}

func (p *enginePolicy) Decide(step int, powerW float64) sim.Inputs {
	tr, a := p.a.tr, p.a
	a.decisions++
	t0 := tr.Clock()
	pre := p.eng.BeginStep(step, powerW)
	t1 := tr.Clock()
	ctl := p.eng.Controller()
	u := ctl.Step(pre.DeltaY)
	t2 := tr.Clock()
	in := p.eng.FinishStep(step, pre, u, ctl)
	t3 := tr.Clock()
	a.mask.add(t1 - t0)
	a.control.add(t2 - t1)
	a.actuate.add(t3 - t2)
	if tr.TickSampled(step) {
		seq := uint64(step)
		tr.Complete("tick.mask", "engine", a.parent, seq, t0, t1-t0, int64(step))
		tr.Complete("tick.control", "engine", a.parent, seq, t1, t2-t1, int64(step))
		tr.Complete("tick.actuate", "engine", a.parent, seq, t2, t3-t2, int64(step))
	}
	return in
}

// timedPolicy times a non-engine policy's Decide.
type timedPolicy struct {
	p sim.Policy
	a *runLayers
}

func (p *timedPolicy) Decide(step int, powerW float64) sim.Inputs {
	tr, a := p.a.tr, p.a
	a.decisions++
	t0 := tr.Clock()
	in := p.p.Decide(step, powerW)
	t1 := tr.Clock()
	a.policy.add(t1 - t0)
	if tr.TickSampled(step) {
		tr.Complete("tick.policy", "defense", a.parent, uint64(step), t0, t1-t0, int64(step))
	}
	return in
}
