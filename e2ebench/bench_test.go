package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/telemetry"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 .. 1, unsorted order
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples leaves only nine beyond it; want not reportable")
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v (ok %v), want 500", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples must not be reportable")
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 0, 100, 25},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 0, 100, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 0, 100, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside parent", []interval{{100, 120}, {-5, 0}}, 0, 100, 0},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRunSelfTime checks the collection run's self-time subtraction: the
// run's duration minus its children's time and the clock reads they add.
func TestRunSelfTime(t *testing.T) {
	var lay figureLayers
	lay.clockNS = 2
	a := runLayers{ticks: 4, decisions: 3}
	a.workload = layerClock{ns: 100, calls: 8}
	a.rapl = layerClock{ns: 30, calls: 4}
	a.mask = layerClock{ns: 50, calls: 3}
	a.fold(&lay, 1000)
	// 1000 - (100+30+50) - 15 calls * 2 ns
	if got := lay.simSelfNS.Load(); got != 790 {
		t.Fatalf("self time = %d, want 790", got)
	}
	if got := lay.workloadNS.Load(); got != 100-8*2 {
		t.Fatalf("workload net = %d, want %d", got, 100-8*2)
	}
	if got := lay.periods.Load(); got != 2 {
		t.Fatalf("periods = %d, want 2 (the first decision precedes any period)", got)
	}
	if got := lay.otherPeriods.Load(); got != 2 {
		t.Fatalf("non-engine periods = %d, want 2", got)
	}
	under := layerClock{ns: 5, calls: 4}
	if got := under.net(2); got != 0 {
		t.Fatalf("net below the clock cost = %d, want 0", got)
	}
}

func TestUsageDeltas(t *testing.T) {
	before := usage{cpuS: 1.5, maxRSS: 100, allocBytes: 1000, gcCPUS: 0.25}
	after := usage{cpuS: 4, maxRSS: 300, allocBytes: 5000, gcCPUS: 0.75}
	d := after.sub(before)
	want := usage{cpuS: 2.5, maxRSS: 300, allocBytes: 4000, gcCPUS: 0.5}
	if d != want {
		t.Fatalf("sub = %+v, want %+v (maxRSS is a high-water mark, kept as read)", d, want)
	}

	// Live: burning CPU and allocating must show in the deltas.
	u0 := readUsage()
	const n = 8 << 20
	sink := make([][]byte, 0, 16)
	for i := 0; i < 16; i++ {
		sink = append(sink, make([]byte, n/16))
	}
	x := 0.0
	for t0 := nowNS(); nowNS()-t0 < 50e6; {
		for i := 0; i < 1000; i++ {
			x += float64(i)
		}
	}
	live := readUsage().sub(u0)
	if live.allocBytes < n {
		t.Errorf("alloc delta %v after allocating %d bytes", live.allocBytes, n)
	}
	if live.cpuS <= 0 {
		t.Errorf("cpu delta %v after 50 ms of spinning", live.cpuS)
	}
	if live.maxRSS <= 0 {
		t.Errorf("max RSS %v", live.maxRSS)
	}
	if len(sink) == 0 || x < 0 {
		t.Fatal("unreachable: keeps the work alive")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark %s", got, want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestListPrintsEveryMetric(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--list"}, &out, &errb); code != 0 {
		t.Fatalf("--list exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(endToEnd)+len(perLayer) {
		t.Fatalf("--list printed %d lines, want %d", len(lines), len(endToEnd)+len(perLayer))
	}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		f := strings.Fields(lines[i])
		if len(f) < 4 || f[1] != d.Name || f[2] != d.Unit || f[3] != d.Better {
			t.Errorf("line %d = %q, want %s %s %s", i, lines[i], d.Name, d.Unit, d.Better)
		}
	}
}

func TestFillRejectsMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "B"}}
	if _, err := fill(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("fill accepted a missing metric")
	}
	if _, err := fill(defs, map[string]float64{"a": 1, "b": math.Inf(1)}); err == nil {
		t.Error("fill accepted an infinite value")
	}
	m, err := fill(defs, map[string]float64{"a": 1.25, "b": 2})
	if err != nil || m["a"] != (metricValue{Value: 1.25, Unit: "s"}) {
		t.Errorf("fill = %v, %v", m, err)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mayad", "--trace", "2"},
		{"--workload", "mayad", "--seed", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}

// TestTracerClockCost checks the clock-cost estimate is a small positive
// number of nanoseconds (it is subtracted once per timed call).
func TestTracerClockCost(t *testing.T) {
	c := clockCost(telemetry.NewTracer(16))
	if c < 0 || c > 10_000 {
		t.Fatalf("clock cost %d ns", c)
	}
}
