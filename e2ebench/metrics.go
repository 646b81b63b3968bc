package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// metricDef is one entry of the metric catalog. The catalog is the source
// of truth for the --list mode; TestCatalogMatchesBenchmarkJSON keeps it
// in step with BENCHMARK.json at the repository root.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which are not gated).
	Bound float64
	// Doc says what the metric measures and, for a layer metric, which
	// workload exercises it.
	Doc string
}

// endToEnd lists the metrics an untraced run (--trace 0) reports. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median set-up time: core.DesignFor per machine; daemon boot + one warm tenant per bank key"},
	{"wall_s", "s", "lower", 0.25, "median wall time of one iteration's timed region (fixed work)"},
	{"cpu_s", "s", "lower", 0.25, "median process user+sys CPU over one timed region (getrusage)"},
	{"alloc_bytes", "B", "lower", 0.1, "median /gc/heap/allocs:bytes delta over one timed region"},
	{"peak_rss_bytes", "B", "lower", 0.2, "max RSS of the benchmark process (getrusage ru_maxrss)"},
	{"tenant_periods_per_s", "1/s", "higher", 0.25, "median over iterations of defense control periods completed per host second"},
}

// perLayer lists the metrics a traced run (--trace 1) reports. Every
// workload reports every one of them; a layer the workload never calls
// reads 0.
var perLayer = []metricDef{
	{"sim.step_ns_per_tick", "ns", "lower", 0, "figures: sim.Run span minus its wrapped children, per simulated tick"},
	{"sim.ticks", "count", "lower", 0, "figures: simulated machine ticks (warmup included)"},
	{"workload.ns_per_tick", "ns", "lower", 0, "figures: wrapped Workload.Demand/Advance, per simulated tick"},
	{"sim.sensor_ns_per_tick.rapl", "ns", "lower", 0, "figures: wrapped attacker RAPL sensor, per simulated tick"},
	{"sim.sensor_ns_per_tick.outlet", "ns", "lower", 0, "figures: wrapped attacker outlet sensor, per simulated tick"},
	{"sim.defense_sensor_ns_per_period", "ns", "lower", 0, "figures: wrapped RunSpec.DefenseSensor, per control period"},
	{"mask.ns_per_period", "ns", "lower", 0, "figures: Engine.BeginStep, per Maya control period"},
	{"control.ns_per_period", "ns", "lower", 0, "figures: Controller().Step, per Maya control period"},
	{"actuator.ns_per_period", "ns", "lower", 0, "figures: Engine.FinishStep, per Maya control period"},
	{"defense.policy_ns_per_period", "ns", "lower", 0, "figures: non-engine policy Decide, per control period"},
	{"sim.run_alloc_bytes_per_tick", "B", "lower", 0, "figures: heap allocation across the collection fan-outs, per simulated tick"},
	{"runner.queue_wait_s_p50", "s", "lower", 0, "figures: median wait of a collection job for a pool worker"},
	{"runner.jobs", "count", "lower", 0, "figures: collection jobs run (runner.Metrics)"},
	{"attack.featurize_s.onehot", "s", "lower", 0, "figures: attack.Featurize on one-hot window features (Fig 6)"},
	{"attack.featurize_s.fft", "s", "lower", 0, "figures: attack.Featurize on FFT features (Fig 9)"},
	{"attack.examples", "count", "lower", 0, "figures: feature vectors built"},
	{"nn.train_s", "s", "lower", 0, "figures: time covered by the MLP.Train spans of the parallel restarts"},
	{"nn.epochs", "count", "lower", 0, "figures: training epochs run over all restarts"},
	{"nn.train_alloc_bytes", "B", "lower", 0, "figures: heap allocation across the training restarts"},
	{"nn.evaluate_s", "s", "lower", 0, "figures: MLP.Accuracy on validation + nn.Confusion on test"},
	{"fleet.machine_ns", "ns", "lower", 0, "mayad: batched machine step, per tenant-period (fleet.Metrics)"},
	{"fleet.sense_ns", "ns", "lower", 0, "mayad: sensor reads, per tenant-period"},
	{"fleet.control_ns", "ns", "lower", 0, "mayad: batched control decision, per tenant-period"},
	{"fleet.actuate_ns", "ns", "lower", 0, "mayad: actuator commit, per tenant-period"},
	{"mayad.admit_ms_p50", "ms", "lower", 0, "mayad: client-observed POST /tenants, untraced, median"},
	{"mayad.admit_ms_p99", "ms", "lower", 0, "mayad: client-observed POST /tenants, untraced, 99th percentile"},
	{"mayad.turnaround_s_p50", "s", "lower", 0, "mayad: admit to trace fetched, untraced, median"},
	{"mayad.turnaround_s_p99", "s", "lower", 0, "mayad: admit to trace fetched, untraced, 99th percentile"},
	{"mayad.samples", "count", "higher", 0, "mayad: tenants behind the admit and turnaround percentiles"},
	{"mayad.http_ms_p50.status", "ms", "lower", 0, "mayad: client-observed GET /tenants/{id}, median"},
	{"mayad.http_ms_p50.trace", "ms", "lower", 0, "mayad: client-observed GET /tenants/{id}/trace?format=mayt, median"},
	{"mayad.http_ms_p50.evict", "ms", "lower", 0, "mayad: client-observed DELETE /tenants/{id}, median"},
	{"mayad.trace_bytes", "B", "lower", 0, "mayad: mean MAYT trace size fetched"},
	{"mayad.tenants_per_bank", "count", "higher", 0, "mayad: tenants per stepped bank, weighted by periods stepped (fleet tick and period counters)"},
	{"mayad.shed", "count", "lower", 0, "mayad: mayad_admission_shed_total"},
	{"core.design_s", "s", "lower", 0, "all: median core.DesignFor per machine"},
	{"runtime.gc_cpu_s", "s", "lower", 0, "all: /cpu/classes/gc/total:cpu-seconds per untraced timed region, median"},
	{"bench.trace_overhead", "ratio", "lower", 0, "all: traced iteration wall over the untraced median wall"},
}

// writeList prints the catalog: one metric per line with its unit and
// direction, end-to-end metrics first.
func writeList(w io.Writer) error {
	for _, group := range []struct {
		kind string
		defs []metricDef
	}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
		for _, d := range group.defs {
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf(" bound=%g", d.Bound)
			}
			if _, err := fmt.Fprintf(w, "%-10s %-34s %-6s %-6s%s  %s\n", group.kind, d.Name, d.Unit, d.Better, bound, d.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from vals, failing on any
// catalog metric the run did not produce.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle of xs (mean of the middle two for an even
// count); xs is not modified. It panics on an empty slice, which only a
// bug can produce: every run measures at least one iteration.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it is reportable: at least minBeyond samples must lie beyond
// its rank, so a p99 needs 1,000 samples.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n-rank >= minBeyond
}

// usage is a process resource snapshot.
type usage struct {
	cpuS       float64 // user+sys CPU seconds (getrusage)
	maxRSS     float64 // bytes
	allocBytes float64 // cumulative /gc/heap/allocs:bytes
	gcCPUS     float64 // cumulative /cpu/classes/gc/total:cpu-seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readUsage snapshots the process's CPU, peak RSS, heap allocation and GC
// CPU counters.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return usage{
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		maxRSS:     float64(ru.Maxrss) * 1024, // Linux reports KiB
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPUS:     s[1].Value.Float64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// sub returns the counters accumulated between before and u. maxRSS is a
// high-water mark, not a counter, so the later reading is kept.
func (u usage) sub(before usage) usage {
	return usage{
		cpuS:       u.cpuS - before.cpuS,
		maxRSS:     u.maxRSS,
		allocBytes: u.allocBytes - before.allocBytes,
		gcCPUS:     u.gcCPUS - before.gcCPUS,
	}
}
