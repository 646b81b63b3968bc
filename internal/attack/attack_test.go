package attack

import (
	"context"
	"sync"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/nn"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
)

var (
	artMu   sync.Mutex
	artSys1 *core.Design
)

func sys1Art(t *testing.T) *core.Design {
	t.Helper()
	artMu.Lock()
	defer artMu.Unlock()
	if artSys1 == nil {
		d, err := core.DesignFor(sim.Sys1(), core.DefaultDesignOptions())
		if err != nil {
			t.Fatal(err)
		}
		artSys1 = d
	}
	return artSys1
}

// miniClasses is a 5-app subset with diverse signatures, scaled for tests.
func miniClasses() []defense.Class {
	all := defense.AppClasses(0.15)
	return []defense.Class{all[0], all[2], all[5], all[6], all[9]}
}

// collectMini captures a small dataset under the given design kind.
func collectMini(t *testing.T, kind defense.Kind, seed uint64, runs, maxTicks int) *trace.Dataset {
	t.Helper()
	cfg := sim.Sys1()
	var art *core.Design
	if kind.IsMaya() {
		art = sys1Art(t)
	}
	ds, _ := defense.Collect(context.Background(), defense.CollectSpec{
		Cfg:          cfg,
		Design:       defense.NewDesign(kind, cfg, art, 20),
		Classes:      miniClasses(),
		RunsPerClass: runs,
		MaxTicks:     maxTicks,
		WarmupTicks:  2000,
		Seed:         seed,
	})
	return ds
}

func miniSpec() Spec {
	s := DefaultSpec()
	s.WindowLen = 60 // for the small structural tests
	return s
}

func TestFeaturizeShapes(t *testing.T) {
	ds := &trace.Dataset{ClassNames: []string{"a", "b"}}
	ds.Add(0, 20, make([]float64, 550))
	ds.Add(1, 20, make([]float64, 550))
	spec := miniSpec()
	ex, dim, err := Featurize(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	// 550/5 = 110 → one window of 60 per trace.
	if len(ex) != 2 {
		t.Fatalf("examples=%d want 2", len(ex))
	}
	if dim != 60*10 {
		t.Fatalf("dim=%d want 600", dim)
	}
}

func TestFeaturizeFFT(t *testing.T) {
	ds := &trace.Dataset{ClassNames: []string{"a"}}
	ds.Add(0, 50, make([]float64, 300))
	spec := FFTSpec()
	ex, dim, err := Featurize(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 2 { // 300/128 = 2 windows
		t.Fatalf("examples=%d", len(ex))
	}
	if dim != 128/2+2 { // mean feature + one-sided spectrum
		t.Fatalf("dim=%d want 66", dim)
	}
}

func TestFeaturizeErrors(t *testing.T) {
	ds := &trace.Dataset{ClassNames: []string{"a"}}
	ds.Add(0, 20, make([]float64, 100))
	bad := miniSpec()
	bad.WindowLen = 0
	if _, _, err := Featurize(ds, bad); err == nil {
		t.Fatal("want error for zero window")
	}
	bad = miniSpec()
	bad.Levels = 1
	if _, _, err := Featurize(ds, bad); err == nil {
		t.Fatal("want error for 1 level")
	}
}

func TestRunRejectsTinyDatasets(t *testing.T) {
	ds := &trace.Dataset{ClassNames: []string{"a"}}
	ds.Add(0, 20, make([]float64, 100))
	if _, err := Run(ds, miniSpec()); err == nil {
		t.Fatal("want error for too few examples")
	}
}

// TestAttackOrderingMiniFig6 is the miniature Fig 6: the same attack run
// against the three defended systems must reproduce the paper's security
// conclusion — Random Inputs and Maya Constant leak well above chance while
// Maya GS sits near chance. (The paper itself sees both Random > Constant
// in Fig 6 and Constant > Random in Fig 8; the invariant across every
// experiment is that only Maya GS reaches the chance floor.)
func TestAttackOrderingMiniFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := DefaultSpec()
	spec.WindowLen = 240 // one 24 s window per trace

	const runs, ticks = 60, 24000
	random := mustRun(t, collectMini(t, defense.RandomInputs, 200, runs, ticks), spec)
	constant := mustRun(t, collectMini(t, defense.MayaConstant, 300, runs, ticks), spec)
	gs := mustRun(t, collectMini(t, defense.MayaGS, 400, runs, ticks), spec)

	t.Logf("random=%.2f constant=%.2f gs=%.2f (chance %.2f)",
		random.AverageAccuracy, constant.AverageAccuracy, gs.AverageAccuracy, gs.Chance)

	if random.AverageAccuracy < gs.Chance+0.15 {
		t.Errorf("random-inputs defense should leak clearly: %.2f (chance %.2f)",
			random.AverageAccuracy, gs.Chance)
	}
	if constant.AverageAccuracy < gs.Chance+0.25 {
		t.Errorf("constant-mask defense should leak strongly: %.2f", constant.AverageAccuracy)
	}
	if gs.AverageAccuracy > gs.Chance+0.15 {
		t.Errorf("Maya GS leaked: %.2f vs chance %.2f", gs.AverageAccuracy, gs.Chance)
	}
	if random.AverageAccuracy <= gs.AverageAccuracy {
		t.Errorf("random inputs (%.2f) must leak more than GS (%.2f)",
			random.AverageAccuracy, gs.AverageAccuracy)
	}
	if constant.AverageAccuracy <= gs.AverageAccuracy {
		t.Errorf("constant mask (%.2f) must leak more than GS (%.2f)",
			constant.AverageAccuracy, gs.AverageAccuracy)
	}
}

func mustRun(t *testing.T, ds *trace.Dataset, spec Spec) *Result {
	t.Helper()
	res, err := Run(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfusionRowsValid(t *testing.T) {
	ds := collectMini(t, defense.Baseline, 500, 16, 12000)
	res := mustRun(t, ds, miniSpec())
	for i, row := range res.Confusion.Matrix {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	if res.InputDim != 600 {
		t.Fatalf("input dim %d", res.InputDim)
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	ds := collectMini(t, defense.Baseline, 600, 16, 12000)
	spec := miniSpec()
	spec.Train.Epochs = 5
	a := mustRun(t, ds, spec)
	b := mustRun(t, ds, spec)
	if a.AverageAccuracy != b.AverageAccuracy {
		t.Fatalf("attack not deterministic: %g vs %g", a.AverageAccuracy, b.AverageAccuracy)
	}
}

func TestTemplateClassifierSeparable(t *testing.T) {
	// Two classes with distinct template means.
	r := rng.New(1)
	var ex []nn.Example
	for i := 0; i < 200; i++ {
		y := i % 2
		base := 2.0
		if y == 1 {
			base = 8.0
		}
		x := []float64{base + r.NormFloat64(), base/2 + r.NormFloat64()}
		ex = append(ex, nn.Example{X: x, Y: y})
	}
	tc, err := FitTemplates(ex[:150], 2)
	if err != nil {
		t.Fatal(err)
	}
	if acc := tc.Accuracy(ex[150:]); acc < 0.95 {
		t.Fatalf("template accuracy %g", acc)
	}
	if tc.MeanTemplateDistance() < 1 {
		t.Fatalf("templates should separate: %g", tc.MeanTemplateDistance())
	}
}

func TestTemplateErrors(t *testing.T) {
	if _, err := FitTemplates(nil, 2); err == nil {
		t.Fatal("no examples accepted")
	}
	if _, err := FitTemplates([]nn.Example{{X: []float64{1}, Y: 0}}, 1); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := FitTemplates([]nn.Example{{X: []float64{1}, Y: 5}}, 2); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := FitTemplates([]nn.Example{{X: []float64{1}, Y: 0}}, 2); err == nil {
		t.Fatal("empty class accepted")
	}
}

func TestTemplateAttackOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// The statistical attacker shows the same security shape as the MLP:
	// it reads Maya Constant's texture but fails against Maya GS.
	spec := DefaultSpec()
	spec.WindowLen = 240
	constant := collectMini(t, defense.MayaConstant, 700, 30, 24000)
	gs := collectMini(t, defense.MayaGS, 800, 30, 24000)
	accConst, err := RunTemplate(constant, spec)
	if err != nil {
		t.Fatal(err)
	}
	accGS, err := RunTemplate(gs, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("template attack: constant %.2f, gs %.2f (chance 0.20)", accConst, accGS)
	if accConst < 0.4 {
		t.Errorf("templates should read the constant mask's texture: %.2f", accConst)
	}
	if accGS > 0.45 {
		t.Errorf("templates should fail against GS: %.2f", accGS)
	}
	if accGS >= accConst {
		t.Errorf("ordering broken: gs %.2f >= constant %.2f", accGS, accConst)
	}
}

func TestFeaturizeSpectrogram(t *testing.T) {
	ds := &trace.Dataset{ClassNames: []string{"a"}}
	ds.Add(0, 20, make([]float64, 1100))
	spec := SpectrogramSpec()
	ex, dim, err := Featurize(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	// 1100 samples → 2 windows of 512; STFT frames: (512-64)/32+1 = 15;
	// 4 bands → 60 features.
	if len(ex) != 2 {
		t.Fatalf("examples=%d", len(ex))
	}
	if dim != 60 {
		t.Fatalf("dim=%d want 60", dim)
	}
}

// TestSpectrogramAttackResidual documents a finding of this reproduction
// that goes beyond the paper's evaluation: a time-frequency attacker
// (per-frame band energies into the MLP) extracts substantial application
// information from Maya GS traces — not from the mask, but from the
// defense's own actuation granularity. Every quantized control move changes
// power by (input step × local plant gain), and the local gain depends on
// what the application is doing, so the high-frequency band energy of a
// defended trace is an application fingerprint. The window and FFT
// attackers of §VI-A do not see it (they stay at chance); band-energy
// features isolate it. Injecting cover noise does not help: injected energy
// is itself gain-modulated (see internal/core/dither.go).
//
// The test pins the measured behaviour so regressions in either direction
// (the residual growing, or a change silently breaking the attacker) are
// caught, and keeps the claim honest in EXPERIMENTS.md.
func TestSpectrogramAttackResidual(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := SpectrogramSpec()
	spec.WindowLen = 1200 // whole trace
	constant := collectMini(t, defense.MayaConstant, 900, 50, 24000)
	gs := collectMini(t, defense.MayaGS, 1000, 50, 24000)
	rc, err := Run(constant, spec)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Run(gs, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spectrogram attack: constant %.2f, gs %.2f (chance %.2f)", rc.AverageAccuracy, rg.AverageAccuracy, rg.Chance)
	if rc.AverageAccuracy < rg.Chance+0.1 {
		t.Errorf("spectrograms should read the constant mask: %.2f", rc.AverageAccuracy)
	}
	// The documented residual: well above chance, well below the
	// window-attacker's success on undefended traces.
	if rg.AverageAccuracy < rg.Chance+0.1 {
		t.Errorf("the gain-granularity residual disappeared (%.2f) — update EXPERIMENTS.md if a real fix landed", rg.AverageAccuracy)
	}
	if rg.AverageAccuracy > 0.75 {
		t.Errorf("the residual grew beyond the documented range: %.2f", rg.AverageAccuracy)
	}
}

func TestKNNSeparable(t *testing.T) {
	r := rng.New(21)
	var ex []nn.Example
	for i := 0; i < 300; i++ {
		y := i % 3
		x := []float64{float64(y)*4 + r.NormFloat64(), r.NormFloat64()}
		ex = append(ex, nn.Example{X: x, Y: y})
	}
	c, err := FitKNN(ex[:200], 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc := c.Accuracy(ex[200:]); acc < 0.9 {
		t.Fatalf("kNN accuracy %g", acc)
	}
}

func TestKNNErrors(t *testing.T) {
	if _, err := FitKNN(nil, 3); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := FitKNN([]nn.Example{{X: []float64{1}, Y: 0}}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k larger than the training set is clamped, not an error.
	c, err := FitKNN([]nn.Example{{X: []float64{1}, Y: 0}}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{5}) != 0 {
		t.Fatal("single-example prediction wrong")
	}
}

func TestKNNAttackGSAtChance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := DefaultSpec()
	spec.WindowLen = 240
	gs := collectMini(t, defense.MayaGS, 1100, 30, 24000)
	acc, err := RunKNN(gs, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kNN vs GS: %.2f (chance 0.20)", acc)
	if acc > 0.42 {
		t.Errorf("kNN should fail against GS: %.2f", acc)
	}
}
