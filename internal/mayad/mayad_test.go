package mayad_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// Short-run parameters shared by every test: 2 warmup periods + 20
// recorded periods keeps a full daemon round-trip in the -race budget.
const (
	testWarmup   = 40
	testMaxTicks = 400
	testScale    = 0.02
)

func testConfig(shards int) mayad.Config {
	return mayad.Config{
		Shards: shards,
		DesignFor: func(cfg sim.Config) (*core.Design, error) {
			return difftest.DesignFor(cfg)
		},
	}
}

func testSpec(seed uint64, index int) mayad.TenantSpec {
	return mayad.TenantSpec{
		Workload: "blackscholes", Scale: testScale,
		Seed: seed, Index: index,
		MaxTicks: testMaxTicks, WarmupTicks: testWarmup,
		Flight: true,
	}
}

// refResults runs the mayactl-equivalent solo fleet for base seed S and N
// tenants: the byte-identity reference every daemon trace must match.
func refResults(t *testing.T, base uint64, tenants int) []fleet.TenantResult {
	t.Helper()
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.New(fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: mayad.PeriodTicks,
		Tenants:     tenants,
		BaseSeed:    base,
		NewWorkload: func() workload.Workload {
			return workload.NewApp("blackscholes").Scale(testScale)
		},
		FlightCapacity: testWarmup/mayad.PeriodTicks + testMaxTicks/mayad.PeriodTicks + 8,
		WarmupTicks:    testWarmup,
		MaxTicks:       testMaxTicks,
	}).Run()
}

// admit POSTs a tenant spec and returns the response and decoded status.
func admit(t *testing.T, base string, sp mayad.TenantSpec) (*http.Response, mayad.TenantStatus) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st mayad.TenantStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// dbgServer runs the daemon behind the hardened debugsrv front end, the
// way cmd/mayad serves it: API plus /metrics on one listener.
type dbgServer struct {
	srv    *debugsrv.Server
	cancel context.CancelFunc
	url    string
}

func debugServe(s *mayad.Server) (*dbgServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d, err := debugsrv.ServeHandler(ctx, "127.0.0.1:0", s.Registry(), s.Handler())
	if err != nil {
		cancel()
		return nil, err
	}
	return &dbgServer{srv: d, cancel: cancel, url: "http://" + d.Addr()}, nil
}

func (d *dbgServer) close() {
	d.cancel()
	d.srv.Wait()
}

// waitState polls a tenant's status until it reaches one of the wanted
// states (1 ms cadence, bounded tries).
func waitState(t *testing.T, base string, id int, want ...string) mayad.TenantStatus {
	t.Helper()
	var st mayad.TenantStatus
	for tries := 0; tries < 20000; tries++ {
		code, body := get(t, fmt.Sprintf("%s/tenants/%d", base, id))
		if code != http.StatusOK {
			t.Fatalf("status %d for tenant %d: %s", code, id, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %d stuck in %q, wanted %v", id, st.State, want)
	return st
}

// TestDaemonMatchesFleetAcrossShards is the tentpole acceptance test: N
// tenants admitted over HTTP carrying (seed S, index 0..N-1) must
// produce — at shard counts 1, 2, and 8 — exactly the bytes of a solo
// fleet run with base seed S: the combined /traces.csv, each per-tenant
// trace export in every format, and each flight trace.
func TestDaemonMatchesFleetAcrossShards(t *testing.T) {
	const base, tenants = 0xda3e0, 4
	ref := refResults(t, base, tenants)
	var refCSV bytes.Buffer
	if err := fleet.WriteCSV(&refCSV, ref, nil); err != nil {
		t.Fatal(err)
	}
	// Flight recorders flush once; snapshot the reference bytes before
	// the per-shard subtests each compare against them.
	refFlight := make([][]byte, tenants)
	for i := range refFlight {
		var buf bytes.Buffer
		if err := ref[i].Flight.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		refFlight[i] = buf.Bytes()
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv := mayad.New(testConfig(shards), nil)
			srv.Start()
			defer srv.Drain()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for i := 0; i < tenants; i++ {
				resp, st := admit(t, ts.URL, testSpec(base, i))
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("admit %d: status %d", i, resp.StatusCode)
				}
				if st.ID != i {
					t.Fatalf("admit %d: got id %d", i, st.ID)
				}
			}
			for i := 0; i < tenants; i++ {
				st := waitState(t, ts.URL, i, mayad.StateDone)
				if st.Samples != testMaxTicks/mayad.PeriodTicks {
					t.Fatalf("tenant %d: %d samples, want %d", i, st.Samples, testMaxTicks/mayad.PeriodTicks)
				}
			}

			code, gotCSV := get(t, ts.URL+"/traces.csv")
			if code != http.StatusOK {
				t.Fatalf("/traces.csv: status %d", code)
			}
			if !bytes.Equal(gotCSV, refCSV.Bytes()) {
				t.Fatalf("/traces.csv differs from solo fleet run (%d vs %d bytes)", len(gotCSV), refCSV.Len())
			}

			for i := 0; i < tenants; i++ {
				d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
				d.Add(0, 20, ref[i].DefenseSamples)
				var want bytes.Buffer
				if err := d.WriteCSV(&want); err != nil {
					t.Fatal(err)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("tenant %d csv trace differs", i)
				}
				want.Reset()
				if err := d.WriteBinary(&want); err != nil {
					t.Fatal(err)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace?format=mayt", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("tenant %d mayt trace differs", i)
				}
				if _, got := get(t, fmt.Sprintf("%s/tenants/%d/flight", ts.URL, i)); !bytes.Equal(got, refFlight[i]) {
					t.Fatalf("tenant %d flight trace differs", i)
				}
			}
		})
	}
}

// TestChurnSurvivorsMatchSoloRuns evicts one tenant mid-run over HTTP and
// checks the survivors still finish byte-identical to their solo
// reference — co-residency and churn must never show in a trace.
func TestChurnSurvivorsMatchSoloRuns(t *testing.T) {
	const base, tenants = 0xc0ffee, 3
	ref := refResults(t, base, tenants)

	cfg := testConfig(2)
	cfg.Pace = time.Millisecond // stretch the run so the evict lands mid-flight
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < tenants; i++ {
		if resp, _ := admit(t, ts.URL, testSpec(base, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/tenants/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}

	for _, i := range []int{0, 2} {
		st := waitState(t, ts.URL, i, mayad.StateDone)
		if st.EnergyJ != ref[i].EnergyJ {
			t.Fatalf("tenant %d energy %v != %v", i, st.EnergyJ, ref[i].EnergyJ)
		}
		d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
		d.Add(0, 20, ref[i].DefenseSamples)
		var want bytes.Buffer
		if err := d.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if _, got := get(t, fmt.Sprintf("%s/tenants/%d/trace", ts.URL, i)); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("survivor %d trace differs from solo run", i)
		}
	}
}

// TestAdmissionShedsWhenFull drives admission past MaxTenants and checks
// the shed path end to end: 503, Retry-After, and the counter visible in
// a /metrics scrape through the hardened debugsrv front end.
func TestAdmissionShedsWhenFull(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxTenants = 2
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()

	dbg, err := debugServe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.close()
	base := dbg.url

	for i := 0; i < 2; i++ {
		if resp, _ := admit(t, base, testSpec(0xfeed, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}
	resp, _ := admit(t, base, testSpec(0xfeed, 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload admit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(string(metrics), "mayad_admission_shed_total 1") {
		t.Fatalf("shed counter missing from /metrics:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "mayad_admitted_total 2") {
		t.Fatalf("admitted counter missing from /metrics")
	}
}

// TestShardQueueShedsWhenStalled fills a depth-1 shard queue on a server
// whose shards were never started: the second admission must shed rather
// than block the HTTP handler.
func TestShardQueueShedsWhenStalled(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueDepth = 1
	srv := mayad.New(cfg, nil) // Start intentionally not called
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := admit(t, ts.URL, testSpec(1, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatal("first admit should fill the queue")
	}
	resp, _ := admit(t, ts.URL, testSpec(1, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full admit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full shed lost its Retry-After header")
	}
}

// TestDrainFlushesPrefixAndSpools stops the daemon mid-run and checks the
// graceful-drain contract: tenants finalize as bit-identical prefixes of
// their full runs, admissions shed 503 while draining, and traces land in
// the spool directory.
func TestDrainFlushesPrefixAndSpools(t *testing.T) {
	const base = 0xd7a1
	ref := refResults(t, base, 1)

	cfg := testConfig(1)
	cfg.Pace = 2 * time.Millisecond
	cfg.SpoolDir = t.TempDir()
	srv := mayad.New(cfg, nil)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := admit(t, ts.URL, testSpec(base, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatal("admit failed")
	}
	waitState(t, ts.URL, 0, mayad.StateRunning, mayad.StateDone)
	srv.Drain()

	st := waitState(t, ts.URL, 0, mayad.StateDrained, mayad.StateDone)
	if st.Samples == 0 && st.State == mayad.StateDrained {
		// Drained before the first recorded period: legal, but then the
		// prefix check is vacuous; the pace above makes this implausible.
		t.Log("drained with zero samples")
	}
	if st.Samples > len(ref[0].DefenseSamples) {
		t.Fatalf("drained run has %d samples, solo run only %d", st.Samples, len(ref[0].DefenseSamples))
	}

	if resp, _ := admit(t, ts.URL, testSpec(base, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission during drain: status %d, want 503", resp.StatusCode)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d %s", code, body)
	}

	// The drained trace is a bit-identical prefix of the solo run.
	_, got := get(t, ts.URL+"/tenants/0/trace")
	d := &trace.Dataset{ClassNames: []string{"blackscholes"}}
	d.Add(0, 20, ref[0].DefenseSamples[:st.Samples])
	var want bytes.Buffer
	if err := d.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("drained trace is not a prefix of the solo run")
	}

	spooled, err := trace.ReadDatasetFile(cfg.SpoolDir+"/tenant-0.mayt", nil)
	if err != nil {
		t.Fatalf("spooled trace unreadable: %v", err)
	}
	if len(spooled.Traces) != 1 || len(spooled.Traces[0].Samples) != st.Samples {
		t.Fatalf("spooled trace has wrong shape: %d traces", len(spooled.Traces))
	}
}

// TestSpillDrainStreams checks the observation tap end to end. A reader
// drains /spill in a loop while two tenants run on one shard, then once
// more after both are done. Each tenant's spilled samples, concatenated,
// must equal its recorded trace bit for bit, with consecutive steps: no
// period is lost, duplicated or reordered, the last one included. The
// drain loop races the shard goroutine's pushes, so -race covers the spill
// seam.
func TestSpillDrainStreams(t *testing.T) {
	const base, tenants = 0x5b11, 2
	cfg := testConfig(1)
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < tenants; i++ {
		if resp, _ := admit(t, ts.URL, testSpec(base, i)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}
	spilled := make(map[int][]mayad.SpillSample)
	drain := func() {
		code, body := get(t, ts.URL+"/spill")
		if code != http.StatusOK {
			t.Fatalf("/spill: status %d", code)
		}
		var samples []mayad.SpillSample
		if err := json.Unmarshal(body, &samples); err != nil {
			t.Fatal(err)
		}
		for _, smp := range samples {
			if smp.Tenant < 0 || smp.Tenant >= tenants || smp.Shard != 0 {
				t.Fatalf("spill sample for unknown tenant or shard: %+v", smp)
			}
			spilled[smp.Tenant] = append(spilled[smp.Tenant], smp)
		}
	}
	for running := true; running; {
		drain()
		running = false
		for i := 0; i < tenants; i++ {
			if st, _ := srv.Status(i); st.State != mayad.StateDone {
				running = true
			}
		}
	}
	drain()

	for i := 0; i < tenants; i++ {
		_, body := get(t, fmt.Sprintf("%s/tenants/%d/trace?format=mayt", ts.URL, i))
		d, err := trace.ReadBinary(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want := d.Traces[0].Samples
		got := spilled[i]
		if len(got) != len(want) {
			t.Fatalf("tenant %d: spilled %d samples, recorded %d", i, len(got), len(want))
		}
		for j, smp := range got {
			if math.Float64bits(smp.PowerW) != math.Float64bits(want[j]) {
				t.Fatalf("tenant %d sample %d: spilled %v, recorded %v", i, j, smp.PowerW, want[j])
			}
			if j > 0 && smp.Step != got[j-1].Step+1 {
				t.Fatalf("tenant %d: step %d follows step %d", i, smp.Step, got[j-1].Step)
			}
		}
	}
}

// TestStatusReportsTick checks the progress a status reports: while a
// paced tenant runs, tick rises through 0 < tick < max_ticks and never
// decreases; once done it reports max_ticks, also when max_ticks is not a
// whole number of control periods.
func TestStatusReportsTick(t *testing.T) {
	cfg := testConfig(1)
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()

	sp := testSpec(0x71c, 0)
	sp.MaxTicks = 2010
	id, err := srv.Admit(sp)
	if err != nil {
		t.Fatal(err)
	}
	var st mayad.TenantStatus
	last, sawProgress := 0, false
	for tries := 0; st.State != mayad.StateDone; tries++ {
		if tries == 200000 {
			t.Fatalf("tenant stuck in %q at tick %d", st.State, st.Tick)
		}
		time.Sleep(100 * time.Microsecond)
		st, _ = srv.Status(id)
		if st.Tick < last {
			t.Fatalf("tick went from %d back to %d", last, st.Tick)
		}
		last = st.Tick
		if st.State == mayad.StateRunning && st.Tick > 0 {
			if st.Tick >= sp.MaxTicks {
				t.Fatalf("running tenant reports tick %d of %d", st.Tick, sp.MaxTicks)
			}
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("never saw a running tenant with 0 < tick < max_ticks")
	}
	if last != sp.MaxTicks {
		t.Fatalf("done tenant reports tick %d, want %d", last, sp.MaxTicks)
	}
}

// badSpecs are well-formed specs that admission must refuse with 400.
var badSpecs = []struct {
	spec   mayad.TenantSpec
	reason string // a word the 400 body must contain
}{
	{mayad.TenantSpec{Machine: "sys9"}, "sys9"},
	{mayad.TenantSpec{Defense: "rot13"}, "rot13"},
	{mayad.TenantSpec{Workload: "solitaire"}, "solitaire"},
	{mayad.TenantSpec{Faults: "gremlins"}, "gremlins"},
	{mayad.TenantSpec{Defense: "baseline", Flight: true}, "flight"},
	{mayad.TenantSpec{Seconds: 1e300}, "seconds"},
	{mayad.TenantSpec{Seconds: 1e12}, "seconds"},
	{mayad.TenantSpec{MaxTicks: 1 << 40}, "max_ticks"},
	{mayad.TenantSpec{WarmupTicks: 1 << 40}, "warmup_ticks"},
}

// malformedSpecs are request bodies that do not decode as a TenantSpec.
var malformedSpecs = []string{"{nope", `{"seconds":NaN}`, `{"seconds":1e400}`}

// TestBadSpecsRejected covers admission validation: unknown names 400,
// durations whose tick count overflows or is not finite 400, tick counts
// over the caps 400 with the field named, malformed JSON 400, unknown
// tenant 404.
func TestBadSpecsRejected(t *testing.T) {
	srv := mayad.New(testConfig(1), nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range badSpecs {
		body, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reason, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reason), c.reason) {
			t.Fatalf("%s: status %d reason %q, want 400 naming %q", body, resp.StatusCode, reason, c.reason)
		}
	}
	// JSON cannot encode ±Inf or NaN, so those durations reach Admit only
	// through the Go API; over HTTP they arrive as undecodable bodies.
	for _, secs := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := srv.Admit(mayad.TenantSpec{Seconds: secs}); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Fatalf("seconds %v: err %v, want a finiteness rejection", secs, err)
		}
	}
	for _, body := range malformedSpecs {
		resp, err := http.Post(ts.URL+"/tenants", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed JSON %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if code, _ := get(t, ts.URL+"/tenants/99"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
}

// FuzzAdmit drives raw POST /tenants bodies through the API handler. The
// trust-boundary contract: every body gets 201, 400 or 503 — never a
// panic or another status — and a spec that is admitted has been
// normalized into bounded run lengths. The server is never started, so
// admitted tenants only queue; each input gets a fresh server so its
// admission is not shed by earlier inputs filling the queue.
func FuzzAdmit(f *testing.F) {
	for _, sp := range []mayad.TenantSpec{
		{},
		testSpec(1, 0),
		{Machine: "sys3", Defense: "random", Workload: "web/google", Seconds: 0.5, WarmupTicks: -1},
		{Defense: "constant", Faults: "kitchen-sink", MaxTicks: mayad.MaxRunTicks, WarmupTicks: mayad.MaxWarmupTicks},
		{Seconds: -3, MaxTicks: -7, WarmupTicks: -1 << 40, Index: -1},
	} {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, c := range badSpecs {
		body, err := json.Marshal(c.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range malformedSpecs {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		"",
		`{"seed":7,"index":1,"sec`,
		`{"max_ticks":99999999999999999999999}`,
		`{"warmup_ticks":-9223372036854775808}`,
		`{"seconds":9.2e15}`,
		`{"seconds":1e-300}`,
		`{"scale":1e308,"index":9223372036854775807,"seed":18446744073709551615}`,
		`{"machine":"sys1"}{"machine":"sys2"}`,
		`{"unknown":1}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		h := mayad.New(testConfig(1), nil).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
		var st mayad.TenantStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("body %q: 201 with undecodable status: %v", body, err)
		}
		if sp := st.Spec; sp.MaxTicks <= 0 || sp.MaxTicks > mayad.MaxRunTicks ||
			sp.WarmupTicks < 0 || sp.WarmupTicks > mayad.MaxWarmupTicks {
			t.Fatalf("body %q admitted with max_ticks %d, warmup_ticks %d", body, sp.MaxTicks, sp.WarmupTicks)
		}
	})
}
