package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"github.com/maya-defense/maya/internal/telemetry"
)

// benchWorkload is one benchmark input set. An iteration is a fresh set-up
// followed by a timed region that does a fixed amount of work; the timed
// region of the same seed must reproduce the same output fingerprint.
type benchWorkload interface {
	// setup builds one iteration's state (timed as set-up).
	setup(ctx context.Context, seed uint64) (prepared, error)
	// traced runs one iteration with spans around every layer call and
	// returns its fingerprint and per-layer metrics.
	traced(ctx context.Context, seed uint64, tr *telemetry.Tracer) (tracedResult, error)
	// sampleLayers returns the per-layer metrics computed from the
	// untraced iterations' latency samples, and writes their detail lines
	// (percentile with sample count) to w.
	sampleLayers(w io.Writer) (map[string]float64, error)
	// enough reports whether the untraced iterations have gathered enough
	// latency samples for every percentile the workload reports.
	enough() bool
}

// prepared is one set-up iteration, ready to time.
type prepared struct {
	setupS  float64
	designS []float64 // core.DesignFor, one entry per machine
	// run executes the timed region.
	run func(ctx context.Context) (timed, error)
	// close releases the iteration's state; it is safe to call after run.
	close func()
}

// timed is what one untraced timed region measured.
type timed struct {
	wallS       float64
	use         usage
	periods     float64 // tenant control periods completed
	attempted   int
	failed      int
	fingerprint string
	// check, when set, describes an output check the iteration failed.
	check string
}

// tracedResult is what the traced iteration measured.
type tracedResult struct {
	wallS       float64
	fingerprint string
	check       string
	layers      map[string]float64
	attempted   int
	failed      int
}

// A run spends about setupShare of its time on set-ups: after each timed
// iteration it sets up again, discarding the state, until set-up time
// catches up (at most maxSetups in all), so the setup_s samples spread over
// the whole run rather than bunch in one stretch of it. A run that ends
// with fewer than minSetups set-ups or less than minSetupS of them (a
// traced run) adds more at the end.
const (
	setupShare = 0.05
	minSetups  = 5
	maxSetups  = 100
	minSetupS  = 1.0
)

// hardStopS bounds the untraced loop when a workload is slower than its
// sample target expects, keeping a run inside its time limit.
const hardStopS = 100

var workloads = map[string]func() benchWorkload{
	"figures": func() benchWorkload { return &figuresWorkload{} },
	"mayad":   func() benchWorkload { return newMayadWorkload() },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figures or mayad")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	secs := fs.Int("seconds", 60, "how long the untraced loop measures")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced iteration and reports per-layer metrics")
	list := fs.Bool("list", false, "print every metric with its unit and direction, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		if err := writeList(stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || *seed == 0 || *secs < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "e2ebench: need --workload figures|mayad, --seed > 0, --seconds >= 1, --trace 0|1")
		return 2
	}
	res, err := measure(context.Background(), mk(), *name, *seed, float64(*secs), *traceMode == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the untraced loop (and, with traced set, one traced
// iteration) and assembles the result line. Detail lines go to out.
func measure(ctx context.Context, w benchWorkload, name string, seed uint64, budgetS float64, traced bool,
	out io.Writer) (*result, error) {

	writeStamp(out, name, seed)
	if traced {
		// The traced run needs from the untraced loop only a reference
		// fingerprint and wall time, and the latency samples.
		budgetS = 0
	}
	var (
		setups, designs     []float64
		walls, cpus, allocs []float64
		gcs, rates          []float64
		res                 = &result{Correct: true}
		prints              = map[string]bool{}
	)
	moreSetups := func() error {
		p, err := w.setup(ctx, seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.close()
		setups = append(setups, p.setupS)
		designs = append(designs, p.designS...)
		return nil
	}
	t0 := nowNS()
	for {
		// Start every iteration from a collected heap, so that no iteration
		// pays on its clock for collecting the previous one's garbage.
		runtime.GC()
		p, err := w.setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p.setupS)
		designs = append(designs, p.designS...)
		t, err := p.run(ctx)
		p.close()
		if err != nil {
			return nil, fmt.Errorf("timed region: %w", err)
		}
		walls = append(walls, t.wallS)
		cpus = append(cpus, t.use.cpuS)
		allocs = append(allocs, t.use.allocBytes)
		gcs = append(gcs, t.use.gcCPUS)
		rates = append(rates, t.periods/t.wallS)
		res.Attempted += t.attempted
		res.Failed += t.failed
		prints[t.fingerprint] = true
		if t.check != "" {
			res.Correct = false
			fmt.Fprintf(out, "# FAIL: %s\n", t.check)
		}
		for budgetS > 0 && sum(setups) < setupShare*seconds(nowNS()-t0) && len(setups) < maxSetups {
			if err := moreSetups(); err != nil {
				return nil, err
			}
		}
		// Stop before an iteration that would end past the budget, so a run
		// lasts about --seconds whatever an iteration costs.
		elapsed := seconds(nowNS() - t0)
		next := elapsed / float64(len(walls))
		if (elapsed+next > budgetS && w.enough()) || elapsed >= hardStopS {
			break
		}
	}
	if !w.enough() {
		return nil, errors.New("too few latency samples for the reported percentiles; raise --seconds")
	}
	for len(setups) < minSetups || (sum(setups) < minSetupS && len(setups) < maxSetups) {
		if err := moreSetups(); err != nil {
			return nil, err
		}
	}
	if len(prints) != 1 {
		res.Correct = false
		fmt.Fprintf(out, "# FAIL: %d distinct output fingerprints across %d iterations of seed %d\n", len(prints), len(walls), seed)
	}
	fmt.Fprintf(out, "# untraced: %d iterations, %d set-ups, fingerprint %s\n", len(walls), len(setups), firstKey(prints))
	fmt.Fprintf(out, "# wall_s per iteration %v\n", walls)
	fmt.Fprintf(out, "# cpu_s per iteration %v\n", cpus)

	final := readUsage()
	if !traced {
		m, err := fill(endToEnd, map[string]float64{
			"setup_s":              median(setups),
			"wall_s":               median(walls),
			"cpu_s":                median(cpus),
			"alloc_bytes":          median(allocs),
			"peak_rss_bytes":       final.maxRSS,
			"tenant_periods_per_s": median(rates),
		})
		if err != nil {
			return nil, err
		}
		res.Metrics = m
		// The percentiles are per-layer metrics; print them here too.
		if _, err := w.sampleLayers(out); err != nil {
			return nil, err
		}
		return res, nil
	}

	runtime.GC()
	tr := telemetry.NewTracer(1 << 17)
	tr.SetTickSample(tracedTickSample)
	tres, err := w.traced(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced iteration: %w", err)
	}
	res.Attempted += tres.attempted
	res.Failed += tres.failed
	if tres.check != "" {
		res.Correct = false
		fmt.Fprintf(out, "# FAIL: %s\n", tres.check)
	}
	if !prints[tres.fingerprint] {
		res.Correct = false
		fmt.Fprintf(out, "# FAIL: traced fingerprint %s differs from untraced %s\n", tres.fingerprint, firstKey(prints))
	}
	if path, err := writeTrace(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed), tr); err != nil {
		fmt.Fprintf(out, "# trace not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "# trace: %s (%d spans, %d dropped)\n", path, tr.Len(), tr.Dropped())
	}

	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0 // a layer the workload never calls reads 0
	}
	sampled, err := w.sampleLayers(out)
	if err != nil {
		return nil, err
	}
	for _, src := range []map[string]float64{tres.layers, sampled} {
		for _, k := range sortedKeys(src) {
			if _, ok := vals[k]; !ok {
				return nil, fmt.Errorf("workload reported %s, which is not in the catalog", k)
			}
			vals[k] = src[k]
		}
	}
	vals["core.design_s"] = median(designs)
	vals["runtime.gc_cpu_s"] = median(gcs)
	vals["bench.trace_overhead"] = tres.wallS / median(walls)
	m, err := fill(perLayer, vals)
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// traceDir receives the traced iteration's Chrome trace, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

// tracedTickSample keeps one control period in this many as a span tree;
// every call is still timed into the per-layer sums.
const tracedTickSample = 256

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func firstKey(m map[string]bool) string {
	if keys := sortedKeys(m); len(keys) > 0 {
		return keys[0]
	}
	return ""
}

// writeStamp prints the environment every result depends on.
func writeStamp(w io.Writer, name string, seed uint64) {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	fmt.Fprintf(w, "# e2ebench workload=%s seed=%d go=%s gomaxprocs=%d nproc=%d commit=%s%s\n",
		name, seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, modified)
}
