package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/sim"
)

// AppOverhead is one application's normalized power and time under a
// defense (one bar of Fig 14).
type AppOverhead struct {
	App             string
	NormalizedPower float64
	NormalizedTime  float64
}

// DefenseOverhead aggregates Fig 14 for one defense.
type DefenseOverhead struct {
	Defense   string
	Apps      []AppOverhead
	AvgPower  float64
	AvgTime   float64
	AvgEnergy float64 // normalized energy (power × time)
}

// Fig14Result reproduces the power/execution-time overheads, normalized to
// the insecure Baseline.
type Fig14Result struct {
	Machine  string
	Defenses []DefenseOverhead
	// Paper values for the Avg columns (§VII-E): power −30/−31/−11/−29 %,
	// time +100/+127/+124/+47 % for NoisyBaseline/RandomInputs/
	// MayaConstant/MayaGS.
	PaperAvgPower []float64
	PaperAvgTime  []float64
}

// ID implements Result.
func (r *Fig14Result) ID() string { return "Fig 14" }

// fig14Kinds is Fig 14's defense order.
var fig14Kinds = []defense.Kind{defense.NoisyBaseline, defense.RandomInputs, defense.MayaConstant, defense.MayaGS}

// Fig14 measures power and execution time of all applications under every
// defense on Sys1, normalized to Baseline, running each app to completion.
func Fig14(ctx context.Context, sc Scale, seed uint64) (*Fig14Result, error) {
	cfg := sim.Sys1()
	art, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	// Larger scale than the attack experiments: the parallel sections must
	// dominate, as with the paper's native inputs.
	wlScale := sc.WorkloadScale * 2
	classes := defense.AppClasses(wlScale)
	runs := max(sc.AvgRuns/20, 2)

	measure := func(kind defense.Kind) []defense.RunStats {
		_, stats := defense.Collect(ctx, defense.CollectSpec{
			Cfg:          cfg,
			Design:       defense.NewDesign(kind, cfg, art, 20),
			Classes:      classes,
			RunsPerClass: runs,
			MaxTicks:     sc.TraceTicks * 40, // generous completion bound
			StopOnFinish: true,
			WarmupTicks:  sc.WarmupTicks,
			Seed:         seed + uint64(kind)*7919,
		})
		return stats
	}

	type agg struct{ power, seconds float64 }
	aggregate := func(stats []defense.RunStats) []agg {
		out := make([]agg, len(classes))
		counts := make([]int, len(classes))
		for _, s := range stats {
			out[s.Label].power += s.AvgPowerW
			out[s.Label].seconds += s.Seconds
			counts[s.Label]++
		}
		for i := range out {
			if counts[i] > 0 {
				out[i].power /= float64(counts[i])
				out[i].seconds /= float64(counts[i])
			}
		}
		return out
	}

	base := aggregate(measure(defense.Baseline))
	res := &Fig14Result{
		Machine:       cfg.Name,
		PaperAvgPower: []float64{0.70, 0.69, 0.89, 0.71},
		PaperAvgTime:  []float64{2.00, 2.27, 2.24, 1.47},
	}
	for _, kind := range fig14Kinds {
		d := DefenseOverhead{Defense: kind.String()}
		got := aggregate(measure(kind))
		var sp, st, se float64
		for i, c := range classes {
			np := got[i].power / base[i].power
			nt := got[i].seconds / base[i].seconds
			d.Apps = append(d.Apps, AppOverhead{App: c.Name, NormalizedPower: np, NormalizedTime: nt})
			sp += np
			st += nt
			se += np * nt
		}
		n := float64(len(classes))
		d.AvgPower, d.AvgTime, d.AvgEnergy = sp/n, st/n, se/n
		res.Defenses = append(res.Defenses, d)
	}
	return res, nil
}

// Render implements Result.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — power and execution time vs Baseline (%s)\n", r.ID(), r.Machine)
	fmt.Fprintf(&b, "%-15s %12s %12s %12s %14s\n", "defense", "power", "time", "energy", "paper (P/T)")
	for i, d := range r.Defenses {
		fmt.Fprintf(&b, "%-15s %11.2fx %11.2fx %11.2fx %7.2f/%.2f\n",
			d.Defense, d.AvgPower, d.AvgTime, d.AvgEnergy,
			r.PaperAvgPower[i], r.PaperAvgTime[i])
	}
	b.WriteString("expected shape: every defense draws less average power than Baseline;\n")
	b.WriteString("Maya GS has the lowest execution-time overhead of the defenses and\n")
	b.WriteString("roughly Baseline-level total energy (§VII-E).\n")
	return b.String()
}

// TableIResult captures the §V-A / §VII-E controller budget and the Table I
// InScope response-time requirement: a matrix-based controller step in
// privileged software must fit comfortably inside 5–10 µs.
type TableIResult struct {
	ControllerDim  int
	OpsPerStep     int
	StorageBytes   int
	MaskStepNanos  int64
	CtlStepNanos   int64
	TotalStepNanos int64
}

// ID implements Result.
func (r *TableIResult) ID() string { return "Table I / §VII-E" }

// TableI measures the controller and mask-generator step costs on the host.
func TableI(ctx context.Context, sc Scale, seed uint64) (*TableIResult, error) {
	cfg := sim.Sys1()
	art, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	ctl := art.Controller.Clone()
	gen := defense.NewDesign(defense.MayaGS, cfg, art, 20).Policy(seed)

	// Time in batches and keep the fastest batch: the suite may be running
	// other experiments concurrently, and the minimum over many short
	// batches recovers the uncontended per-step cost.
	const batches, perBatch = 20, 1000
	minBatch := func(step func(i int)) int64 {
		best := int64(math.MaxInt64)
		for b := 0; b < batches; b++ {
			start := time.Now() //maya:wallclock Table I step-cost measurement of the host
			for i := 0; i < perBatch; i++ {
				step(b*perBatch + i)
			}
			if ns := time.Since(start).Nanoseconds() / perBatch; ns < best { //maya:wallclock Table I step-cost measurement
				best = ns
			}
		}
		return best
	}
	// Controller-only timing.
	ctlNs := minBatch(func(int) { ctl.Step(0.5) })
	// Full Decide (mask + controller + actuation mapping).
	totalNs := minBatch(func(i int) { gen.Decide(i+1, 15.0) })

	return &TableIResult{
		ControllerDim:  ctl.Dim(),
		OpsPerStep:     ctl.Ops(),
		StorageBytes:   ctl.StorageBytes(),
		CtlStepNanos:   ctlNs,
		MaskStepNanos:  totalNs - ctlNs,
		TotalStepNanos: totalNs,
	}, nil
}

// Render implements Result.
func (r *TableIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — controller budget\n", r.ID())
	fmt.Fprintf(&b, "  dimension:        %d states (paper: 11 with µ-synthesis weights)\n", r.ControllerDim)
	fmt.Fprintf(&b, "  ops/step:         ≈%d multiply-accumulates (paper: ≈200)\n", r.OpsPerStep)
	fmt.Fprintf(&b, "  storage:          %d bytes (paper: <1 KB)\n", r.StorageBytes)
	// The measured latencies are rendered as verdicts against the paper's
	// bounds, not as numbers: the report body must be byte-identical across
	// reruns, and the measured steps sit an order of magnitude inside their
	// bounds, where host load cannot flip a verdict. The nanoseconds go to
	// the nondeterministic timing section (TimingSummary).
	fmt.Fprintf(&b, "  controller step:  %s the paper's <1 µs bound\n", verdict(r.CtlStepNanos < 1_000))
	fmt.Fprintf(&b, "  full Maya step:   %s the Table I 5–10 µs budget\n", verdict(r.TotalStepNanos <= 10_000))
	return b.String()
}

// verdict words a measured step against its bound.
func verdict(within bool) string {
	if within {
		return "within"
	}
	return "over"
}
