package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"regexp"
	"sync"
	"sync/atomic"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/nn"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
)

// figuresWorkload runs the fig6 and fig9 suite entries at figuresScale
// with the experiment cache off and two workers, as cmd/experiments
// -parallel 2 runs them.
type figuresWorkload struct {
	// last holds the latest untraced suite outcomes: the traced iteration
	// takes the report metadata (titles, paper numbers) it does not
	// recompute from them, and the accuracies it must reproduce.
	last     []experiments.SuiteOutcome
	lastSeed uint64
}

var figureEntries = regexp.MustCompile(`^(fig6|fig9)$`)

// figureSpec restates one attack figure's collection and attack setup as
// the experiments package builds it, so the traced iteration can rebuild
// the run from public calls. The traced iteration checks that the rebuild
// reproduces the suite's accuracies exactly, so a drift here fails the run
// instead of skewing the layer numbers.
type figureSpec struct {
	entry        string
	cfg          sim.Config
	classes      []defense.Class
	spec         attack.Spec
	outlet       bool
	attackPeriod int
	features     string // layer-metric suffix: onehot or fft
}

// figureKinds is the defense order of Figs 6 and 9.
var figureKinds = []defense.Kind{defense.RandomInputs, defense.MayaConstant, defense.MayaGS}

func figureSpecs(sc experiments.Scale) []figureSpec {
	fig6 := attack.DefaultSpec()
	fig6.WindowLen = sc.TraceTicks / 20 / 5
	fig6.Train.Epochs = sc.Epochs
	fig9 := attack.FFTSpec()
	fig9.WindowLen = sc.TraceTicks / 50
	fig9.Train.Epochs = sc.Epochs
	return []figureSpec{
		{"fig6", sim.Sys1(), defense.AppClasses(sc.WorkloadScale), fig6, false, 20, "onehot"},
		{"fig9", sim.Sys3(), defense.PageClasses(sc.WorkloadScale * 8), fig9, true, 50, "fft"},
	}
}

// figuresRunsPerClass is the traces captured per label in one iteration.
const figuresRunsPerClass = 10

// figuresScale is Small() with figuresRunsPerClass traces per label
// instead of 40: the same defenses, classes and networks, with a quarter
// of the collection runs to record and train on, so that a run holds
// several iterations to average.
func figuresScale() experiments.Scale {
	sc := experiments.Small()
	sc.RunsPerClass = figuresRunsPerClass
	return sc
}

// controlPeriodTicks is defense.Collect's default control period.
const controlPeriodTicks = 20

// figurePeriods counts the defense control periods one suite pass
// completes: every collection run steps warmup plus trace ticks.
func figurePeriods(sc experiments.Scale) int64 {
	runs := 0
	for _, f := range figureSpecs(sc) {
		runs += len(figureKinds) * len(f.classes) * sc.RunsPerClass
	}
	return int64(runs) * int64((sc.WarmupTicks+sc.TraceTicks)/controlPeriodTicks)
}

func (f *figuresWorkload) setup(_ context.Context, seed uint64) (prepared, error) {
	t0 := nowNS()
	var designS []float64
	for _, cfg := range []sim.Config{sim.Sys1(), sim.Sys3()} {
		d0 := nowNS()
		if _, err := core.DesignFor(cfg, core.DefaultDesignOptions()); err != nil {
			return prepared{}, err
		}
		designS = append(designS, seconds(nowNS()-d0))
		// Fill the suite's per-machine design cache, as the first figure
		// of a cmd/experiments run does.
		if _, err := experiments.DesignFor(cfg); err != nil {
			return prepared{}, err
		}
	}
	setupS := seconds(nowNS() - t0)
	return prepared{
		setupS:  setupS,
		designS: designS,
		run: func(ctx context.Context) (timed, error) {
			t, outs, err := runSuite(ctx, seed)
			f.last, f.lastSeed = outs, seed
			return t, err
		},
		close: func() {},
	}, nil
}

func (f *figuresWorkload) enough() bool { return true }

func (f *figuresWorkload) sampleLayers(io.Writer) (map[string]float64, error) {
	return map[string]float64{}, nil
}

// runSuite is the untraced timed region: RunSuite over fig6 and fig9.
func runSuite(ctx context.Context, seed uint64) (timed, []experiments.SuiteOutcome, error) {
	sc := figuresScale()
	entries := experiments.FilterSuite(experiments.Suite(), figureEntries)
	before := readUsage()
	t0 := nowNS()
	outs := experiments.RunSuite(ctx, entries, sc, seed, runner.Options{Workers: 2})
	wall := seconds(nowNS() - t0)
	use := readUsage().sub(before)
	t := timed{wallS: wall, use: use, periods: float64(figurePeriods(sc)), attempted: len(outs)}
	for _, o := range outs {
		if o.Err != nil {
			t.failed++
			t.check = fmt.Sprintf("suite entry %s: %v", o.Name, o.Err)
		}
	}
	fp, err := reportFingerprint(sc, seed, outs)
	if err != nil {
		return timed{}, nil, err
	}
	t.fingerprint = fp
	return t, outs, nil
}

// reportFingerprint hashes the deterministic report body.
func reportFingerprint(sc experiments.Scale, seed uint64, outs []experiments.SuiteOutcome) (string, error) {
	var b bytes.Buffer
	if err := experiments.WriteReport(&b, sc, seed, outs, false); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// figureLayers accumulates the traced iteration's per-layer sums across
// every collection run; runs fold their private sums in once at the end.
type figureLayers struct {
	ticks, periods, mayaPeriods, otherPeriods atomic.Int64
	simSelfNS, workloadNS, raplNS, outletNS   atomic.Int64
	defSensorNS, maskNS, controlNS, actNS     atomic.Int64
	policyNS                                  atomic.Int64

	// clockNS is the tracer clock's own cost per timed call.
	clockNS int64

	mu         sync.Mutex
	queueWaitS []float64
}

func (f *figuresWorkload) traced(ctx context.Context, seed uint64, tr *telemetry.Tracer) (tracedResult, error) {
	sc := figuresScale()
	if f.last == nil || f.lastSeed != seed {
		return tracedResult{}, fmt.Errorf("no untraced suite result for seed %d", seed)
	}
	ref := map[string]*experiments.AttackResult{}
	for _, o := range f.last {
		if o.Err != nil {
			return tracedResult{}, fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		ar, ok := o.Res.(*experiments.AttackResult)
		if !ok {
			return tracedResult{}, fmt.Errorf("%s: unexpected result type %T", o.Name, o.Res)
		}
		ref[o.Name] = ar
	}

	var (
		lay       figureLayers
		pm        = runner.NewMetrics(telemetry.NewRegistry())
		collectB  float64
		featS     = map[string]float64{}
		examples  int
		trainNS   int64
		trainB    float64
		evalNS    atomic.Int64
		epochs    atomic.Int64
		rebuilt   []experiments.SuiteOutcome
		attempted int
	)
	lay.clockNS = clockCost(tr)
	root := telemetry.NewRootContext("figures", seed)
	t0 := tr.Clock()
	for fi, fs := range figureSpecs(sc) {
		attempted++
		want := ref[fs.entry]
		figSpan := tr.Start("figure", "bench", root, uint64(fi))
		figSpan.Label = fs.entry
		design, err := experiments.DesignFor(fs.cfg)
		if err != nil {
			return tracedResult{}, err
		}
		names := make([]string, len(fs.classes))
		for i, c := range fs.classes {
			names[i] = c.Name
		}
		got := *want
		got.Outcomes = nil
		for ki, kind := range figureKinds {
			kindSeed := seed + uint64(ki+1)*1_000_000_007
			d := defense.NewDesign(kind, fs.cfg, design, controlPeriodTicks)

			colSpan := tr.Start("collect", "bench", figSpan.Context(), uint64(ki))
			colSpan.Label = kind.String()
			before := readUsage()
			ds, err := collectTraced(ctx, tr, colSpan.Context(), fs, sc, d, names, kindSeed, pm, &lay)
			collectB += readUsage().sub(before).allocBytes
			colSpan.End()
			if err != nil {
				return tracedResult{}, err
			}

			atkSpan := tr.Start("attack", "bench", figSpan.Context(), uint64(ki))
			fa, err := attackTraced(ctx, tr, atkSpan.Context(), ds, fs.spec, &evalNS, &epochs)
			atkSpan.End()
			if err != nil {
				return tracedResult{}, fmt.Errorf("%s vs %v: %w", fs.entry, kind, err)
			}
			featS[fs.features] += seconds(fa.featurizeNS)
			examples += fa.examples
			trainNS += fa.trainNS
			trainB += fa.trainAlloc
			got.Outcomes = append(got.Outcomes, experiments.AttackOutcome{
				Defense: kind.String(), Accuracy: fa.cm.AverageAccuracy(), Matrix: fa.cm.Matrix,
			})
		}
		figSpan.End()
		for i, o := range got.Outcomes {
			w := want.Outcomes[i]
			//nolint:maya/floateq the rebuild must reproduce the suite's accuracy bit for bit
			if o.Defense != w.Defense || o.Accuracy != w.Accuracy {
				return tracedResult{}, fmt.Errorf("%s: rebuilt %s accuracy %v, suite %s %v",
					fs.entry, o.Defense, o.Accuracy, w.Defense, w.Accuracy)
			}
		}
		rebuilt = append(rebuilt, experiments.SuiteOutcome{Name: fs.entry, Res: &got})
	}
	wall := seconds(tr.Clock() - t0)
	fp, err := reportFingerprint(sc, seed, rebuilt)
	if err != nil {
		return tracedResult{}, err
	}

	if got, want := lay.periods.Load(), figurePeriods(sc); got != want {
		return tracedResult{}, fmt.Errorf("traced run completed %d control periods, expected %d", got, want)
	}
	ticks := float64(lay.ticks.Load())
	periods := float64(lay.periods.Load())
	perMaya := func(ns int64) float64 { return float64(ns) / float64(max(lay.mayaPeriods.Load(), 1)) }
	layers := map[string]float64{
		"sim.step_ns_per_tick":             float64(lay.simSelfNS.Load()) / ticks,
		"sim.ticks":                        ticks,
		"workload.ns_per_tick":             float64(lay.workloadNS.Load()) / ticks,
		"sim.sensor_ns_per_tick.rapl":      float64(lay.raplNS.Load()) / ticks,
		"sim.sensor_ns_per_tick.outlet":    float64(lay.outletNS.Load()) / ticks,
		"sim.defense_sensor_ns_per_period": float64(lay.defSensorNS.Load()) / periods,
		"mask.ns_per_period":               perMaya(lay.maskNS.Load()),
		"control.ns_per_period":            perMaya(lay.controlNS.Load()),
		"actuator.ns_per_period":           perMaya(lay.actNS.Load()),
		"defense.policy_ns_per_period":     float64(lay.policyNS.Load()) / float64(max(lay.otherPeriods.Load(), 1)),
		"sim.run_alloc_bytes_per_tick":     collectB / ticks,
		"runner.queue_wait_s_p50":          median(lay.queueWaitS),
		"runner.jobs":                      float64(pm.JobsDone.Value()),
		"attack.featurize_s.onehot":        featS["onehot"],
		"attack.featurize_s.fft":           featS["fft"],
		"attack.examples":                  float64(examples),
		"nn.train_s":                       seconds(trainNS),
		"nn.epochs":                        float64(epochs.Load()),
		"nn.train_alloc_bytes":             trainB,
		"nn.evaluate_s":                    seconds(evalNS.Load()),
	}
	return tracedResult{wallS: wall, fingerprint: fp, layers: layers, attempted: attempted}, nil
}

// collectTraced is defense.Collect rebuilt from public calls with every
// layer wrapped: the same (label, run) grid on the same pool, the same
// per-run seeds, and the dataset assembled in submission order.
func collectTraced(ctx context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext, fs figureSpec,
	sc experiments.Scale, d *defense.Design, names []string, seed uint64, pm *runner.Metrics, lay *figureLayers) (*trace.Dataset, error) {

	n := len(fs.classes) * sc.RunsPerClass
	poolStart := tr.Clock()
	samples, err := runner.MapN(ctx, runner.Options{Metrics: pm}, n,
		func(_ context.Context, i int, _ *rng.Stream) ([]float64, error) {
			wait := seconds(tr.Clock() - poolStart)
			lay.mu.Lock()
			lay.queueWaitS = append(lay.queueWaitS, wait)
			lay.mu.Unlock()
			return runTraced(tr, parent, fs, sc, d, seed, i/sc.RunsPerClass, i%sc.RunsPerClass, uint64(i), lay), nil
		})
	if err != nil {
		return nil, err
	}
	ds := &trace.Dataset{ClassNames: names}
	periodMS := float64(fs.attackPeriod) * fs.cfg.TickSeconds * 1000
	for i, s := range samples {
		ds.Add(i/sc.RunsPerClass, periodMS, s)
	}
	return ds, nil
}

// runTraced is one collection run (defense.Collect's per-run body) with
// the workload, both sensors and the policy wrapped, and returns the
// attacker's samples.
func runTraced(tr *telemetry.Tracer, parent telemetry.SpanContext, fs figureSpec, sc experiments.Scale,
	d *defense.Design, seed uint64, label, run int, seq uint64, lay *figureLayers) []float64 {

	base := seed + uint64(label)*1_000_003 + uint64(run)*7_919
	m := sim.NewMachine(fs.cfg, base+1)
	w := fs.classes[label].New()
	w.Reset(base + 2)
	pol := d.Policy(base + 3)

	span := tr.Start("sim.run", "sim", parent, seq)
	acc := &runLayers{tr: tr, parent: span.Context()}
	var att sim.PowerSensor
	attLC := &acc.rapl
	if fs.outlet {
		att = sim.NewOutletSensor(fs.cfg, base+4)
		attLC = &acc.outlet
	} else {
		att = sim.NewRAPLSensor(m)
	}
	sampler := &sim.Sampler{Sensor: &timedSensor{s: att, tr: tr, lc: attLC}, PeriodTicks: fs.attackPeriod}
	defSensor := &timedSensor{s: sim.NewRAPLSensor(m), tr: tr, lc: &acc.defSensor, ticks: &acc.ticks}

	start := tr.Clock()
	sim.Run(m, &timedWorkload{w: w, tr: tr, lc: &acc.workload}, wrapPolicy(pol, acc), sim.RunSpec{
		ControlPeriodTicks: controlPeriodTicks,
		MaxTicks:           sc.TraceTicks,
		Samplers:           []*sim.Sampler{sampler},
		WarmupTicks:        sc.WarmupTicks,
		DefenseSensor:      defSensor,
	})
	dur := tr.Clock() - start
	span.End()
	acc.fold(lay, dur)
	return sampler.Samples
}

// figureAttack is one traced attack's outcome and layer times.
type figureAttack struct {
	cm          *nn.ConfusionMatrix
	examples    int
	featurizeNS int64
	trainNS     int64
	trainAlloc  float64
}

// attackTraced is attack.Run rebuilt with a span per stage: Featurize,
// nn.Split, two parallel restarts of NewMLP + Train + validation
// Accuracy, then Confusion on the test split of the better network.
func attackTraced(ctx context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext, ds *trace.Dataset,
	spec attack.Spec, evalNS, epochs *atomic.Int64) (figureAttack, error) {

	var fa figureAttack
	f0 := tr.Clock()
	examples, inputDim, err := attack.Featurize(ds, spec)
	fa.featurizeNS = tr.Clock() - f0
	tr.Complete("attack.featurize", "attack", parent, 0, f0, fa.featurizeNS, 0)
	if err != nil {
		return fa, err
	}
	fa.examples = len(examples)
	if len(examples) < 10 {
		return fa, fmt.Errorf("only %d examples", len(examples))
	}
	r := rng.NewNamed(spec.Seed, "attack")
	train, val, test := nn.Split(r, examples, 0.6, 0.2)
	sizes := append([]int{inputDim}, spec.Hidden...)
	sizes = append(sizes, ds.NumClasses())
	cfg := spec.Train
	if cfg.Epochs == 0 {
		cfg = nn.DefaultTrainConfig()
	}
	cfg.Log = func(int, float64, float64) { epochs.Add(1) }

	type trained struct {
		m     *nn.MLP
		val   float64
		train interval
	}
	before := readUsage()
	nets, err := runner.MapN(ctx, runner.Options{}, 2,
		func(_ context.Context, restart int, _ *rng.Stream) (trained, error) {
			rr := rng.NewNamed(spec.Seed+uint64(restart)*7919, "attack/restart")
			t0 := tr.Clock()
			m := nn.NewMLP(rr, sizes...)
			m.Train(rr, train, val, cfg)
			t1 := tr.Clock()
			tr.Complete("nn.train", "nn", parent, uint64(restart), t0, t1-t0, int64(restart))
			acc := m.Accuracy(val)
			t2 := tr.Clock()
			tr.Complete("nn.accuracy", "nn", parent, uint64(restart), t1, t2-t1, int64(restart))
			evalNS.Add(t2 - t1)
			return trained{m: m, val: acc, train: interval{t0, t1}}, nil
		})
	fa.trainAlloc = readUsage().sub(before).allocBytes
	if err != nil {
		return fa, err
	}
	var best *nn.MLP
	bestVal := -1.0
	ivs := make([]interval, 0, len(nets))
	lo, hi := nets[0].train.start, nets[0].train.end
	for _, n := range nets {
		ivs = append(ivs, n.train)
		lo, hi = min(lo, n.train.start), max(hi, n.train.end)
		if n.val > bestVal {
			best, bestVal = n.m, n.val
		}
	}
	// The restarts train concurrently: count the time they cover once.
	fa.trainNS = covered(ivs, lo, hi)
	t0 := tr.Clock()
	fa.cm = nn.Confusion(best, test, ds.ClassNames)
	t1 := tr.Clock()
	tr.Complete("nn.confusion", "nn", parent, 0, t0, t1-t0, 0)
	evalNS.Add(t1 - t0)
	return fa, nil
}
