// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI–§VII), plus microbenchmarks for the per-step costs the
// paper reports in §VII-E. Each experiment benchmark runs the corresponding
// internal/experiments entry point at the Small scale inside its timed
// loop — ns/op is the wall time of one whole experiment — and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. Absolute values come from the
// simulated substrate; the shapes (who wins, by what factor, where the
// chance floor sits) are the reproduction targets — see EXPERIMENTS.md.
package maya_test

import (
	"context"
	"sync"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/mask"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

// benchScale keeps experiment benchmarks tractable: most take seconds per
// run at this scale, so the default -benchtime runs each only a few times.
func benchScale() experiments.Scale {
	sc := experiments.Small()
	sc.RunsPerClass = 30
	sc.AvgRuns = 30
	return sc
}

var (
	designOnce sync.Once
	sys1Design *core.Design
)

func benchDesign(b *testing.B) *core.Design {
	b.Helper()
	designOnce.Do(func() {
		d, err := experiments.DesignFor(sim.Sys1())
		if err != nil {
			b.Fatal(err)
		}
		sys1Design = d
	})
	return sys1Design
}

// run executes the experiment b.N times inside the timed loop and returns
// the last result, whose headline numbers the caller reports as custom
// metrics. ns/op is therefore the cost of one whole experiment.
func run[T any](b *testing.B, fn func() (T, error)) T {
	b.Helper()
	var v T
	for i := 0; i < b.N; i++ {
		var err error
		if v, err = fn(); err != nil {
			b.Fatal(err)
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Per-figure experiment benchmarks.

func BenchmarkFig03_NaiveVsFormal(b *testing.B) {
	r := run(b, func() (*experiments.Fig3Result, error) {
		return experiments.Fig3(sim.Sys1(), benchScale(), 1)
	})
	b.ReportMetric(r.NaiveRMSE, "naive-RMSE-W")
	b.ReportMetric(r.FormalRMSE, "formal-RMSE-W")
	b.ReportMetric(r.NaiveLeakCorr, "naive-leak-corr")
	b.ReportMetric(r.FormalLeakCorr, "formal-leak-corr")
}

func BenchmarkFig04_Masks(b *testing.B) {
	d := benchDesign(b)
	b.ResetTimer()
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(d.Band, 50, 6000, 1)
	}
	gs := r.Profiles[len(r.Profiles)-1]
	b.ReportMetric(gs.MeanChange, "gs-mean-change-W")
	b.ReportMetric(gs.SpectralFlat, "gs-flatness")
	b.ReportMetric(gs.SpectralPeaks, "gs-peaks-per-window")
}

func BenchmarkTable01_ControllerResponse(b *testing.B) {
	r := run(b, func() (*experiments.TableIResult, error) {
		return experiments.TableI(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(float64(r.TotalStepNanos), "maya-step-ns")
	b.ReportMetric(float64(r.ControllerDim), "controller-dim")
	b.ReportMetric(float64(r.StorageBytes), "storage-bytes")
}

func BenchmarkFig06_AppDetection(b *testing.B) {
	sc := benchScale()
	sc.RunsPerClass = 60
	r := run(b, func() (*experiments.AttackResult, error) {
		return experiments.Fig6(context.Background(), sc, 1)
	})
	b.ReportMetric(r.Outcomes[0].Accuracy, "random-inputs-acc")
	b.ReportMetric(r.Outcomes[1].Accuracy, "maya-constant-acc")
	b.ReportMetric(r.Outcomes[2].Accuracy, "maya-gs-acc")
	b.ReportMetric(r.Chance, "chance")
}

func BenchmarkFig07_SummaryStats(b *testing.B) {
	r := run(b, func() (*experiments.Fig7Result, error) {
		return experiments.Fig7(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.MedianSpread[0], "noisy-median-spread-W")
	b.ReportMetric(r.MedianSpread[3], "gs-median-spread-W")
}

func BenchmarkFig08_VideoDetection(b *testing.B) {
	r := run(b, func() (*experiments.AttackResult, error) {
		return experiments.Fig8(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.Outcomes[0].Accuracy, "random-inputs-acc")
	b.ReportMetric(r.Outcomes[1].Accuracy, "maya-constant-acc")
	b.ReportMetric(r.Outcomes[2].Accuracy, "maya-gs-acc")
	b.ReportMetric(r.Chance, "chance")
}

func BenchmarkFig09_WebpageDetection(b *testing.B) {
	r := run(b, func() (*experiments.AttackResult, error) {
		return experiments.Fig9(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.Outcomes[0].Accuracy, "random-inputs-acc")
	b.ReportMetric(r.Outcomes[1].Accuracy, "maya-constant-acc")
	b.ReportMetric(r.Outcomes[2].Accuracy, "maya-gs-acc")
	b.ReportMetric(r.Chance, "chance")
}

func BenchmarkFig10_AveragedTraces(b *testing.B) {
	r := run(b, func() (*experiments.Fig10Result, error) {
		return experiments.Fig10(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.MeanSpread[0], "noisy-mean-spread-W")
	b.ReportMetric(r.MeanSpread[3], "gs-mean-spread-W")
	b.ReportMetric(r.Distinctness[3], "gs-distinctness-W")
}

func BenchmarkFig11_ChangePoints(b *testing.B) {
	r := run(b, func() (*experiments.Fig11Result, error) {
		return experiments.Fig11(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.MatchScore[0], "noisy-phase-match")
	b.ReportMetric(r.MatchScore[2], "constant-phase-match")
	b.ReportMetric(r.MatchScore[3], "gs-phase-match")
}

func BenchmarkFig12_SamplingSweep(b *testing.B) {
	sc := benchScale()
	sc.RunsPerClass = 15
	r := run(b, func() (*experiments.Fig12Result, error) {
		return experiments.Fig12(context.Background(), sc, 1)
	})
	b.ReportMetric(r.Accuracy[0], "gs-acc-at-2ms")
	b.ReportMetric(r.Accuracy[3], "gs-acc-at-20ms")
	b.ReportMetric(r.Chance, "chance")
}

func BenchmarkFig13_Tracking(b *testing.B) {
	r := run(b, func() (*experiments.Fig13Result, error) {
		return experiments.Fig13(context.Background(), benchScale(), 1)
	})
	worst := 0.0
	for _, m := range r.TrackingMAD {
		if m > worst {
			worst = m
		}
	}
	b.ReportMetric(worst, "worst-tracking-MAD-W")
	b.ReportMetric(r.MedianAbsDelta, "worst-median-gap-W")
}

func BenchmarkFig14_Overheads(b *testing.B) {
	r := run(b, func() (*experiments.Fig14Result, error) {
		return experiments.Fig14(context.Background(), benchScale(), 1)
	})
	gs := r.Defenses[3]
	b.ReportMetric(gs.AvgPower, "gs-norm-power")
	b.ReportMetric(gs.AvgTime, "gs-norm-time")
	b.ReportMetric(gs.AvgEnergy, "gs-norm-energy")
	b.ReportMetric(r.Defenses[1].AvgTime, "random-norm-time")
}

func BenchmarkFig15_Platypus(b *testing.B) {
	r := run(b, func() (*experiments.Fig15Result, error) {
		return experiments.Fig15(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.BaselineSeparation, "baseline-separation")
	b.ReportMetric(r.MayaSeparation, "gs-separation")
}

func BenchmarkDTWSeparation(b *testing.B) {
	sc := benchScale()
	sc.RunsPerClass = 10
	r := run(b, func() (*experiments.DTWResult, error) {
		return experiments.DTWAnalysis(context.Background(), sc, 1)
	})
	b.ReportMetric(r.BaselineAccuracy, "dtw-baseline-acc")
	b.ReportMetric(r.MayaGSAccuracy, "dtw-gs-acc")
}

func BenchmarkCovertChannel(b *testing.B) {
	r := run(b, func() (*experiments.CovertResult, error) {
		return experiments.CovertChannel(benchScale(), 1)
	})
	b.ReportMetric(r.BaselineBER, "baseline-BER")
	b.ReportMetric(r.MayaBER, "gs-BER")
}

func BenchmarkThermalChannel(b *testing.B) {
	r := run(b, func() (*experiments.ThermalResult, error) {
		return experiments.Thermal(benchScale(), 1)
	})
	b.ReportMetric(r.BaselineSpread, "baseline-temp-spread-C")
	b.ReportMetric(r.MayaSpread, "gs-temp-spread-C")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

func BenchmarkAblationMasks(b *testing.B) {
	sc := benchScale()
	sc.RunsPerClass = 20
	r := run(b, func() (*experiments.MaskAblationResult, error) {
		return experiments.AblationMasks(context.Background(), sc, 1)
	})
	b.ReportMetric(r.Accuracy[0], "constant-acc")
	b.ReportMetric(r.Accuracy[4], "gaussian-sinusoid-acc")
}

func BenchmarkAblationGuardband(b *testing.B) {
	r := run(b, func() (*experiments.GuardbandAblationResult, error) {
		return experiments.AblationGuardband(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.TrackingMAD[0], "gb0-MAD-W")
	b.ReportMetric(r.TrackingMAD[2], "gb40-MAD-W")
	b.ReportMetric(r.TrackingMAD[len(r.TrackingMAD)-1], "gb160-MAD-W")
}

func BenchmarkAblationActuators(b *testing.B) {
	r := run(b, func() (*experiments.ActuatorAblationResult, error) {
		return experiments.AblationActuators(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.TrackingMAD[0], "dvfs-only-MAD-W")
	b.ReportMetric(r.TrackingMAD[len(r.TrackingMAD)-1], "all-three-MAD-W")
}

func BenchmarkAblationNhold(b *testing.B) {
	r := run(b, func() (*experiments.NholdAblationResult, error) {
		return experiments.AblationNhold(context.Background(), benchScale(), 1)
	})
	b.ReportMetric(r.Peaks[1], "paper-range-peaks")
	b.ReportMetric(r.MeanChange[1], "paper-range-mean-change")
	b.ReportMetric(r.TrackingMAD[1], "paper-range-MAD-W")
}

func BenchmarkAblationController(b *testing.B) {
	// Formal vs naive at constant target — the Fig 3 contrast as a metric.
	r := run(b, func() (*experiments.Fig3Result, error) {
		return experiments.Fig3(sim.Sys1(), benchScale(), 7)
	})
	b.ReportMetric(r.NaiveRMSE/r.FormalRMSE, "naive-over-formal-RMSE")
}

// ---------------------------------------------------------------------------
// Parallel runner: serial vs fanned-out trace collection, and the pool's
// own dispatch overhead.

// benchCollect runs a small Collect sweep at the given worker count.
func benchCollect(b *testing.B, workers int) {
	b.Helper()
	d := benchDesign(b)
	cfg := sim.Sys1()
	spec := defense.CollectSpec{
		Cfg:          cfg,
		Design:       defense.NewDesign(defense.MayaGS, cfg, d, 20),
		Classes:      defense.AppClasses(0.15)[:4],
		RunsPerClass: 4,
		MaxTicks:     6000,
		WarmupTicks:  1000,
		Seed:         1,
		Workers:      workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, _ := defense.Collect(context.Background(), spec)
		if len(ds.Traces) != 16 {
			b.Fatalf("collected %d traces", len(ds.Traces))
		}
	}
}

func BenchmarkCollectSerial(b *testing.B)   { benchCollect(b, 1) }
func BenchmarkCollectParallel(b *testing.B) { benchCollect(b, 0) }

func BenchmarkRunnerDispatch(b *testing.B) {
	// Pure pool overhead: trivially cheap jobs, so ns/op ≈ per-job cost of
	// scheduling, stream derivation, and result collection.
	fn := func(_ context.Context, i int, _ *rng.Stream) (int, error) { return i, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.MapN(context.Background(), runner.Options{}, 64, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// §VII-E microbenchmarks: per-step costs of the deployed defense.

func BenchmarkControllerStep(b *testing.B) {
	d := benchDesign(b)
	ctl := d.Controller.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Step(0.5)
	}
}

func BenchmarkMaskStep(b *testing.B) {
	d := benchDesign(b)
	gen := mask.NewGaussianSinusoid(d.Band, mask.DefaultHold(), 50, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkEngineDecide(b *testing.B) {
	d := benchDesign(b)
	eng := core.NewGSEngine(d, sim.Sys1(), 20, 1)
	eng.Reset(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Decide(i+1, 15)
	}
}

func BenchmarkMachineTick(b *testing.B) {
	m := sim.NewMachine(sim.Sys1(), 1)
	w := workload.NewApp("raytrace")
	w.Reset(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(w)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signal.FFTReal(x)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	d := benchDesign(b)
	_ = d
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignFor(sim.Sys1(), core.DefaultDesignOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
