package experiments

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/telemetry"
)

func TestSuiteCoversAllEntriesOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Suite() {
		if e.Name == "" || e.Run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate suite entry %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig3", "fig13", "ablation-actuators", "toolbox"} {
		if !seen[want] {
			t.Fatalf("suite missing %q", want)
		}
	}
}

func TestFilterSuite(t *testing.T) {
	all := Suite()
	if got := FilterSuite(all, nil); len(got) != len(all) {
		t.Fatalf("nil filter should keep all entries")
	}
	got := FilterSuite(all, regexp.MustCompile(`^fig1[0-5]$`))
	if len(got) != 6 {
		t.Fatalf("fig1x filter kept %d entries, want 6", len(got))
	}
}

// TestReportIdenticalAcrossWorkerCounts is the tentpole guarantee: the
// rendered report is byte-for-byte identical whether the suite runs on one
// worker or many.
func TestReportIdenticalAcrossWorkerCounts(t *testing.T) {
	sc := tiny()
	entries := FilterSuite(Suite(), regexp.MustCompile(`^(fig3|fig4|table1)$`))
	if len(entries) != 3 {
		t.Fatalf("filter kept %d entries, want 3", len(entries))
	}
	render := func(workers int) []byte {
		outs := RunSuite(context.Background(), entries, sc, 7, runner.Options{Workers: workers})
		var buf bytes.Buffer
		if err := WriteReport(&buf, sc, 7, outs, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	if !strings.Contains(string(serial), "## ") {
		t.Fatalf("report has no sections:\n%s", serial)
	}
	for _, workers := range []int{4, 8} {
		if par := render(workers); !bytes.Equal(serial, par) {
			t.Fatalf("report differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, par)
		}
	}
}

// TestReportIdenticalWithTelemetryAttached is the PR's acceptance bar: for a
// fixed seed, pool instrumentation must not change a single byte of the
// report body.
func TestReportIdenticalWithTelemetryAttached(t *testing.T) {
	sc := tiny()
	entries := FilterSuite(Suite(), regexp.MustCompile(`^(fig3|fig4|table1)$`))
	render := func(reg *telemetry.Registry) []byte {
		opts := runner.Options{Workers: 4}
		if reg != nil {
			opts.Metrics = runner.NewMetrics(reg)
		}
		outs := RunSuite(context.Background(), entries, sc, 7, opts)
		var buf bytes.Buffer
		if err := WriteReport(&buf, sc, 7, outs, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := render(nil)
	reg := telemetry.NewRegistry()
	instrumented := render(reg)
	if !bytes.Equal(plain, instrumented) {
		t.Fatalf("report differs with telemetry attached:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain, instrumented)
	}
	// The registry did record the sweep.
	var started float64
	for _, m := range reg.Snapshot() {
		if m.Name == "runner_jobs_started_total" {
			started = m.Value
		}
	}
	if started != 3 {
		t.Fatalf("runner_jobs_started_total = %g, want 3", started)
	}
}

// TestReportIdenticalWithTracingEnabled is this PR's acceptance bar: the
// structured tracer observes the sweep — runner job spans and per-tick engine
// phase spans — without changing a single byte of the rendered report.
func TestReportIdenticalWithTracingEnabled(t *testing.T) {
	sc := tiny()
	// fig7 reaches defense.Collect, so the ambient tracer is picked up all
	// the way down to the engine's per-tick phase spans.
	entries := FilterSuite(Suite(), regexp.MustCompile(`^(fig3|fig7)$`))
	render := func() []byte {
		outs := RunSuite(context.Background(), entries, sc, 7, runner.Options{Workers: 4})
		var buf bytes.Buffer
		if err := WriteReport(&buf, sc, 7, outs, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := render()
	tr := telemetry.NewTracer(1 << 14)
	telemetry.SetActiveTrace(tr)
	t.Cleanup(func() { telemetry.SetActiveTrace(nil) })
	traced := render()
	telemetry.SetActiveTrace(nil)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("report differs with tracing enabled:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	// The tracer did observe the sweep: runner job lifecycle spans and the
	// engine's per-tick phases must both be present.
	names := map[string]bool{}
	for _, ev := range tr.Snapshot() {
		names[ev.Name] = true
	}
	for _, want := range []string{"job.queue_wait", "job.run", "tick.mask", "tick.sensor", "tick.control", "tick.actuate"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (got %v)", want, names)
		}
	}
}

func TestWriteReportOptsTelemetrySection(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("demo_total", "demo").Add(5)
	outs := []SuiteOutcome{{Name: "broken", Err: context.DeadlineExceeded}}
	var buf bytes.Buffer
	if err := WriteReportOpts(&buf, tiny(), 1, outs, ReportOptions{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"## Telemetry", "demo_total 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestWriteReportRendersErrorsAndTiming(t *testing.T) {
	outs := []SuiteOutcome{
		{Name: "broken", Err: context.DeadlineExceeded, TimedOut: true},
		{Name: "table1", Res: &TableIResult{CtlStepNanos: 123, TotalStepNanos: 456}},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, tiny(), 1, outs, true); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"## broken", "ERROR:", "## Timing", "timed out",
		"within the Table I 5–10 µs budget", "table1: controller step 123 ns, full Maya step 456 ns"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	// Table I's measured nanoseconds vary run to run: only the timing
	// section may carry them.
	if body, _, _ := strings.Cut(s, "## Timing"); strings.Contains(body, "123") || strings.Contains(body, "456") {
		t.Fatalf("deterministic report body carries measured latencies:\n%s", body)
	}
}
