package experiments

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"strings"
	"time"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

// SuiteEntry is one experiment of the full evaluation sweep.
type SuiteEntry struct {
	// Name selects the entry from the CLI (-run regexp).
	Name string
	// Run executes the experiment at the given scale and base seed. ctx is
	// the suite job's context: cancellation and the per-entry timeout
	// propagate through it into the entry's nested collection sweeps, and
	// it carries the entry's span identity when tracing is active. Results
	// are a function of (sc, seed) only.
	Run func(ctx context.Context, sc Scale, seed uint64) (Result, error)
}

// Suite returns every experiment of the paper's evaluation in report order:
// figure pipelines, the extension analyses, and the ablations. The list is
// shared by cmd/experiments, the benchmarks, and the determinism tests.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{"fig3", func(ctx context.Context, sc Scale, seed uint64) (Result, error) {
			return Fig3(sim.Sys1(), sc, seed)
		}},
		{"fig4", func(ctx context.Context, sc Scale, seed uint64) (Result, error) {
			d, err := DesignFor(sim.Sys1())
			if err != nil {
				return nil, err
			}
			return Fig4(d.Band, 50, 6000, seed), nil
		}},
		{"table1", func(ctx context.Context, sc Scale, seed uint64) (Result, error) {
			return TableI(ctx, sc, seed)
		}},
		{"fig6", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig6(ctx, sc, seed) }},
		{"fig7", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig7(ctx, sc, seed) }},
		{"fig8", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig8(ctx, sc, seed) }},
		{"fig9", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig9(ctx, sc, seed) }},
		{"fig10", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig10(ctx, sc, seed) }},
		{"fig11", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig11(ctx, sc, seed) }},
		{"fig12", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig12(ctx, sc, seed) }},
		{"fig13", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig13(ctx, sc, seed) }},
		{"fig14", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig14(ctx, sc, seed) }},
		{"fig15", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Fig15(ctx, sc, seed) }},
		{"dtw", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return DTWAnalysis(ctx, sc, seed) }},
		{"covert", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return CovertChannel(sc, seed) }},
		{"thermal", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Thermal(sc, seed) }},
		{"toolbox", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return Toolbox(ctx, sc, seed) }},
		{"faults", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return FaultSweep(sc, seed) }},
		{"ablation-masks", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return AblationMasks(ctx, sc, seed) }},
		{"ablation-guardband", func(ctx context.Context, sc Scale, seed uint64) (Result, error) {
			return AblationGuardband(ctx, sc, seed)
		}},
		{"ablation-nhold", func(ctx context.Context, sc Scale, seed uint64) (Result, error) { return AblationNhold(ctx, sc, seed) }},
		{"ablation-actuators", func(ctx context.Context, sc Scale, seed uint64) (Result, error) {
			return AblationActuators(ctx, sc, seed)
		}},
	}
}

// FilterSuite keeps entries whose names match the regexp (nil keeps all).
func FilterSuite(entries []SuiteEntry, filter *regexp.Regexp) []SuiteEntry {
	if filter == nil {
		return entries
	}
	var out []SuiteEntry
	for _, e := range entries {
		if filter.MatchString(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// SuiteOutcome couples one entry's result with the runner's accounting.
type SuiteOutcome struct {
	Name string
	Res  Result
	Err  error
	// Wall is the experiment's wall-clock duration.
	Wall time.Duration
	// AllocBytes is the experiment's approximate heap-allocation volume
	// (upper bound when jobs overlap; see runner.Options.AllocStats).
	AllocBytes uint64
	// TimedOut marks entries that exceeded the per-job timeout.
	TimedOut bool
	// Cached marks results replayed from the experiment cache instead of
	// executed (RunSuiteCached); Wall and AllocBytes are zero for them.
	Cached bool
}

// RunSuite executes the entries across opts.Workers workers and returns
// outcomes in suite order. Every entry receives the same (sc, seed) it
// would receive when run serially, so the rendered results are identical
// for any worker count; only the accounting fields vary run to run.
func RunSuite(ctx context.Context, entries []SuiteEntry, sc Scale, seed uint64, opts runner.Options) []SuiteOutcome {
	opts.Seed = seed
	opts.AllocStats = true
	jobs := make([]runner.Job[Result], len(entries))
	for i, e := range entries {
		e := e
		jobs[i] = runner.Job[Result]{
			Name: e.Name,
			// The runner-provided stream is deliberately unused: entries
			// derive their randomness from the base seed so that serial and
			// parallel sweeps are bit-for-bit identical. The job's ctx IS
			// used: it carries cancellation, the per-entry timeout, and the
			// job's span identity into the entry's nested sweeps.
			Run: func(ctx context.Context, _ *rng.Stream) (Result, error) {
				return e.Run(ctx, sc, seed)
			},
		}
	}
	results := runner.Run(ctx, opts, jobs)
	outs := make([]SuiteOutcome, len(results))
	for i, r := range results {
		outs[i] = SuiteOutcome{
			Name: r.Name, Res: r.Value, Err: r.Err,
			Wall: r.Wall, AllocBytes: r.AllocBytes, TimedOut: r.TimedOut,
		}
	}
	return outs
}

// ReportOptions selects the opt-in report sections appended after the
// deterministic experiment body.
type ReportOptions struct {
	// Timing appends the per-job wall-clock/allocation accounting section
	// (nondeterministic run to run).
	Timing bool
	// Telemetry, when non-nil, appends the registry's instruments as a
	// section (Prometheus text exposition; nondeterministic where the
	// instruments record wall-clock quantities).
	Telemetry *telemetry.Registry
	// AnnotateCached appends " [cached]" to the section header of entries
	// replayed from the experiment cache. Off by default so cached and
	// fresh reports stay byte-identical — the property the CI
	// figure-regeneration gate diffs for.
	AnnotateCached bool
}

// WriteReport renders outcomes as the EXPERIMENTS.md-style report. The body
// is deterministic — no timestamps or wall-clock values — so a sweep's
// output is byte-identical for any worker count and can be diffed across
// runs. With timing set, a (nondeterministic) accounting section listing
// per-job wall-clock and allocation volume is appended.
func WriteReport(w io.Writer, sc Scale, seed uint64, outs []SuiteOutcome, timing bool) error {
	return WriteReportOpts(w, sc, seed, outs, ReportOptions{Timing: timing})
}

// WriteReportOpts is WriteReport with the full section selection.
func WriteReportOpts(w io.Writer, sc Scale, seed uint64, outs []SuiteOutcome, opts ReportOptions) error {
	if _, err := fmt.Fprintf(w, "# Maya experiments (scale=%s, seed=%d)\n\nGenerated by cmd/experiments.\n\n", sc.Name, seed); err != nil {
		return err
	}
	for _, o := range outs {
		if o.Err != nil {
			if _, err := fmt.Fprintf(w, "## %s\n\nERROR: %v\n\n", o.Name, o.Err); err != nil {
				return err
			}
			continue
		}
		cached := ""
		if opts.AnnotateCached && o.Cached {
			cached = " [cached]"
		}
		if _, err := fmt.Fprintf(w, "## %s (%s)%s\n\n```\n%s```\n\n", o.Res.ID(), o.Name, cached, o.Res.Render()); err != nil {
			return err
		}
	}
	if opts.Timing {
		if _, err := fmt.Fprintf(w, "## Timing\n\n```\n%s```\n", TimingSummary(outs)); err != nil {
			return err
		}
	}
	if opts.Telemetry != nil {
		if _, err := fmt.Fprintf(w, "## Telemetry\n\n```\n%s```\n", TelemetryReport(opts.Telemetry)); err != nil {
			return err
		}
	}
	return nil
}

// TelemetryReport renders the registry for the report's telemetry section:
// the Prometheus text exposition of every registered instrument.
func TelemetryReport(reg *telemetry.Registry) string {
	var b strings.Builder
	// The registry writes to a strings.Builder, which cannot fail.
	_ = reg.WriteProm(&b)
	return b.String()
}

// TimingSummary renders the per-job accounting table (wall-clock and
// allocation volume per experiment, plus totals), followed by Table I's
// measured step latencies, which vary run to run and so stay out of the
// deterministic report body.
func TimingSummary(outs []SuiteOutcome) string {
	var total time.Duration
	var totalAlloc uint64
	s := fmt.Sprintf("%-20s %10s %12s\n", "experiment", "wall", "alloc")
	for _, o := range outs {
		status := ""
		if o.TimedOut {
			status = "  (timed out)"
		} else if o.Err != nil {
			status = "  (failed)"
		} else if o.Cached {
			status = "  (cached)"
		}
		s += fmt.Sprintf("%-20s %10s %12s%s\n", o.Name, o.Wall.Round(time.Millisecond), fmtBytes(o.AllocBytes), status)
		total += o.Wall
		totalAlloc += o.AllocBytes
	}
	s += fmt.Sprintf("%-20s %10s %12s  (sum of per-job wall clocks)\n", "total", total.Round(time.Millisecond), fmtBytes(totalAlloc))
	for _, o := range outs {
		if r, ok := o.Res.(*TableIResult); ok {
			s += fmt.Sprintf("%s: controller step %d ns, full Maya step %d ns (fastest of 20 batches)\n",
				o.Name, r.CtlStepNanos, r.TotalStepNanos)
		}
	}
	return s
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
