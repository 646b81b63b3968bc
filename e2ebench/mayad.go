package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// Mayad workload sizes. A closed loop of mayadClients clients (the
// container's core count), each keeping mayadResident tenants resident,
// pushes mayadTenants short tenants per iteration through a 2-shard
// daemon served over loopback HTTP.
const (
	mayadShards   = 2
	mayadClients  = 2
	mayadResident = 4
	mayadTenants  = 2000
	mayadTicks    = 2000 // recorded ticks per tenant (100 control periods)
	mayadWarmup   = 200
	// mayadPoll is the client's pause when none of its tenants finished
	// since the last status round.
	mayadPoll = time.Millisecond
	// warmIndex offsets the set-up tenants' indices so that every
	// tenant of a run carries its own (seed, index) pair.
	warmIndex = 1 << 20
)

// mayadKey is one bank key of the tenant mix; tenant i uses key i%3.
type mayadKey struct {
	defense, machine, workload string
}

var mayadKeys = []mayadKey{
	{"gs", "sys1", "blackscholes"},
	{"random", "sys1", "blackscholes"},
	{"gs", "sys3", "web/google"},
}

const mayadScale = 0.2

func tenantSpec(seed uint64, index int) mayad.TenantSpec {
	k := mayadKeys[index%len(mayadKeys)]
	return mayad.TenantSpec{
		Machine: k.machine, Defense: k.defense, Workload: k.workload, Scale: mayadScale,
		Seed: seed, Index: index, MaxTicks: mayadTicks, WarmupTicks: mayadWarmup,
	}
}

type mayadWorkload struct {
	admitMS []float64 // untraced POST /tenants latencies, across iterations
	turnS   []float64 // untraced admit-to-trace-fetched, across iterations
}

func newMayadWorkload() *mayadWorkload { return &mayadWorkload{} }

// daemon is one booted mayad with its HTTP front end.
type daemon struct {
	srv    *mayad.Server
	reg    *telemetry.Registry
	dbg    *debugsrv.Server
	cancel context.CancelFunc
	base   string
	client *http.Client
}

// boot starts a daemon and runs one tenant per bank key to completion,
// which synthesizes every Maya design the mix needs.
func boot(ctx context.Context, seed uint64) (*daemon, prepared, error) {
	var p prepared
	t0 := nowNS()
	reg := telemetry.NewRegistry()
	var designMu sync.Mutex
	cfg := mayad.Config{
		Shards: mayadShards,
		DesignFor: func(c sim.Config) (*core.Design, error) {
			d0 := nowNS()
			art, err := core.DesignFor(c, core.DefaultDesignOptions())
			designMu.Lock()
			p.designS = append(p.designS, seconds(nowNS()-d0))
			designMu.Unlock()
			return art, err
		},
	}
	srv := mayad.New(cfg, reg)
	srv.Start()
	sctx, cancel := context.WithCancel(ctx)
	dbg, err := debugsrv.ServeHandler(sctx, "127.0.0.1:0", reg, srv.Handler())
	if err != nil {
		cancel()
		srv.Drain()
		return nil, p, err
	}
	d := &daemon{
		srv: srv, reg: reg, dbg: dbg, cancel: cancel,
		base:   "http://" + dbg.Addr(),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mayadClients}},
	}
	if _, err := d.loop(ctx, seed, warmIndex, len(mayadKeys), 1, len(mayadKeys), nil, telemetry.SpanContext{}); err != nil {
		d.close()
		return nil, p, fmt.Errorf("warm tenants: %w", err)
	}
	designMu.Lock()
	defer designMu.Unlock()
	p.setupS = seconds(nowNS() - t0)
	return d, p, nil
}

// close drains the daemon and shuts its HTTP server down.
func (d *daemon) close() {
	d.srv.Drain()
	d.cancel()
	d.dbg.Wait()
	d.client.CloseIdleConnections()
}

// tenantCall is one tenant's trip through the API, as the client saw it.
type tenantCall struct {
	admitMS, turnS             float64
	statusMS, traceMS, evictMS []float64
	requests, failed, samples  int
	mayt                       []byte
	traceDigest                [32]byte
}

// do sends one request and reads the body; a non-2xx status is an error.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))}
	}
	return b, nil
}

// statusError is a non-2xx response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// maxShedRetries bounds how often a client re-sends an admission the
// daemon shed with 503; every shed counts as a failed request.
const maxShedRetries = 100

// slot is one resident tenant of a client: admitted and not yet deleted.
type slot struct {
	index int
	id    string
	start int64
	span  telemetry.TraceSpan
	polls uint64
	call  *tenantCall
}

// client is one closed-loop API client: it keeps up to resident tenants in
// flight, polls each in turn, and when one is done fetches its trace,
// deletes it and admits the next index from take. tr, when non-nil,
// records a span per tenant and per request.
type client struct {
	d     *daemon
	seed  uint64
	from  int // index of calls[0]
	calls []tenantCall
	tr    *telemetry.Tracer
	root  telemetry.SpanContext
}

// request sends one timed request on behalf of s.
func (c *client) request(ctx context.Context, s *slot, name, method, path string, body []byte, seq uint64) ([]byte, float64, error) {
	s0 := c.tr.Clock()
	t0 := nowNS()
	b, err := c.d.do(ctx, method, path, body)
	ms := float64(nowNS()-t0) / 1e6
	c.tr.Complete(name, "http", s.span.Context(), seq, s0, c.tr.Clock()-s0, int64(s.index))
	s.call.requests++
	if err != nil {
		s.call.failed++
	}
	return b, ms, err
}

// abandonOn maps a non-2xx response, already counted as a failed request,
// to nil so that the client gives the tenant up and carries on; any other
// error (the transport failed) ends the run.
func abandonOn(err error) error {
	var se *statusError
	if errors.As(err, &se) {
		return nil
	}
	return err
}

// admit starts tenant index in a fresh slot; it returns a nil slot when
// the daemon refused the admission.
func (c *client) admit(ctx context.Context, index int) (*slot, error) {
	spec, err := json.Marshal(tenantSpec(c.seed, index))
	if err != nil {
		return nil, err
	}
	s := &slot{index: index, start: nowNS(), call: &c.calls[index-c.from]}
	s.span = c.tr.Start("tenant", "mayad", c.root, uint64(index))
	var b []byte
	var ms float64
	for try := uint64(0); ; try++ {
		b, ms, err = c.request(ctx, s, "http.admit", http.MethodPost, "/tenants", spec, try)
		var se *statusError
		if err == nil || !errors.As(err, &se) || se.code != http.StatusServiceUnavailable || try == maxShedRetries {
			break
		}
		if err := sleepCtx(ctx, mayadPoll); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, abandonOn(err)
	}
	s.call.admitMS = ms
	var st mayad.TenantStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("admit response: %w", err)
	}
	s.id = fmt.Sprint(st.ID)
	return s, nil
}

// poll checks s once; when the tenant is done it fetches the trace and
// deletes the tenant. It reports whether the slot is free again: done, or
// given up after a failed request or a tenant that ended other than done.
func (c *client) poll(ctx context.Context, s *slot) (bool, error) {
	s.polls++
	b, ms, err := c.request(ctx, s, "http.status", http.MethodGet, "/tenants/"+s.id, nil, s.polls)
	if err != nil {
		return true, abandonOn(err)
	}
	s.call.statusMS = append(s.call.statusMS, ms)
	var st mayad.TenantStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return false, fmt.Errorf("status response: %w", err)
	}
	switch st.State {
	case mayad.StateQueued, mayad.StateRunning:
		return false, nil
	case mayad.StateDone:
	default:
		s.call.failed++ // the tenant did not reach done
		return true, nil
	}
	s.call.samples = st.Samples
	mayt, ms, err := c.request(ctx, s, "http.trace", http.MethodGet, "/tenants/"+s.id+"/trace?format=mayt", nil, 0)
	if err != nil {
		return true, abandonOn(err)
	}
	s.call.traceMS = append(s.call.traceMS, ms)
	s.call.turnS = seconds(nowNS() - s.start)
	s.call.mayt = mayt
	s.call.traceDigest = sha256.Sum256(mayt)
	_, ms, err = c.request(ctx, s, "http.evict", http.MethodDelete, "/tenants/"+s.id, nil, 0)
	if err != nil {
		return true, abandonOn(err)
	}
	s.call.evictMS = append(s.call.evictMS, ms)
	s.span.End()
	return true, nil
}

// run drives the closed loop until take reports no more indices and every
// slot has finished.
func (c *client) run(ctx context.Context, resident int, take func() (int, bool)) error {
	var slots []*slot
	refill := func() error {
		for len(slots) < resident {
			i, ok := take()
			if !ok {
				return nil
			}
			s, err := c.admit(ctx, i)
			if err != nil {
				return err
			}
			if s != nil {
				slots = append(slots, s)
			}
		}
		return nil
	}
	if err := refill(); err != nil {
		return err
	}
	for len(slots) > 0 {
		finished := false
		kept := slots[:0]
		for _, s := range slots {
			done, err := c.poll(ctx, s)
			if err != nil {
				return err
			}
			if done {
				finished = true
			} else {
				kept = append(kept, s)
			}
		}
		slots = kept
		if err := refill(); err != nil {
			return err
		}
		if !finished && len(slots) > 0 {
			if err := sleepCtx(ctx, mayadPoll); err != nil {
				return err
			}
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// loop runs clients closed-loop clients, each keeping up to resident
// tenants in flight, over tenant indices [from, from+n).
func (d *daemon) loop(ctx context.Context, seed uint64, from, n, clients, resident int,
	tr *telemetry.Tracer, root telemetry.SpanContext) ([]tenantCall, error) {

	calls := make([]tenantCall, n)
	var next atomic.Int64
	take := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return from + i, i < n
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{d: d, seed: seed, from: from, calls: calls, tr: tr, root: root}
			errs[w] = c.run(ctx, resident, take)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return calls, nil
}

func (m *mayadWorkload) setup(ctx context.Context, seed uint64) (prepared, error) {
	d, p, err := boot(ctx, seed)
	if err != nil {
		return p, err
	}
	p.run = func(ctx context.Context) (timed, error) {
		before := readUsage()
		t0 := nowNS()
		calls, err := d.loop(ctx, seed, 0, mayadTenants, mayadClients, mayadResident, nil, telemetry.SpanContext{})
		wall := seconds(nowNS() - t0)
		use := readUsage().sub(before)
		if err != nil {
			return timed{}, err
		}
		for _, c := range calls {
			if c.turnS > 0 { // the tenant went all the way through
				m.admitMS = append(m.admitMS, c.admitMS)
				m.turnS = append(m.turnS, c.turnS)
			}
		}
		t, err := mayadOutcome(seed, calls)
		t.wallS, t.use = wall, use
		return t, err
	}
	p.close = d.close
	return p, nil
}

// mayadOutcome fingerprints the fetched traces in (seed, index) order and
// checks one tenant per bank key against a solo fleet run.
func mayadOutcome(seed uint64, calls []tenantCall) (timed, error) {
	t := timed{attempted: len(calls)}
	h := sha256.New()
	for i, c := range calls {
		t.attempted += c.requests
		t.failed += c.failed
		if c.samples != mayadTicks/controlPeriodTicks {
			t.failed++
		}
		t.periods += float64(c.samples)
		h.Write(c.traceDigest[:])
		if i < len(mayadKeys) {
			want, err := soloTrace(seed, i)
			if err != nil {
				return t, err
			}
			if !bytes.Equal(c.mayt, want) {
				t.check = fmt.Sprintf("tenant (seed %d, index %d): daemon trace differs from a solo fleet run", seed, i)
			}
		}
	}
	t.fingerprint = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

// soloTrace runs tenant (seed, index) alone in a one-slot fleet.Engine
// with the seeds fleet.TenantSeeds derives, and encodes its period trace
// as the daemon's trace endpoint does.
func soloTrace(seed uint64, index int) ([]byte, error) {
	sp := tenantSpec(seed, index)
	cfg, ok := sim.PresetByName(sp.Machine)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", sp.Machine)
	}
	kind, ok := defense.KindByName(sp.Defense)
	if !ok {
		return nil, fmt.Errorf("unknown defense %q", sp.Defense)
	}
	var art *core.Design
	if kind.IsMaya() {
		var err error
		if art, err = core.DesignFor(cfg, core.DefaultDesignOptions()); err != nil {
			return nil, err
		}
	}
	if _, err := workload.New(sp.Workload, sp.Scale); err != nil {
		return nil, err
	}
	eng := fleet.New(fleet.Spec{
		Config: cfg, Kind: kind, Art: art, PeriodTicks: controlPeriodTicks, Tenants: 1,
		SeedAt: func(int) (uint64, uint64, uint64, uint64) { return fleet.TenantSeeds(seed, index) },
		NewWorkload: func() workload.Workload {
			w, _ := workload.New(sp.Workload, sp.Scale) // validated above
			return w
		},
		WarmupTicks: sp.WarmupTicks,
		MaxTicks:    sp.MaxTicks,
	})
	res := eng.Run()
	ds := &trace.Dataset{ClassNames: []string{sp.Workload}}
	ds.Add(0, float64(controlPeriodTicks)*cfg.TickSeconds*1000, res[0].DefenseSamples)
	var b bytes.Buffer
	if err := ds.WriteBinary(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (m *mayadWorkload) enough() bool { return len(m.admitMS) >= minLatencySamples }

func (m *mayadWorkload) sampleLayers(w io.Writer) (map[string]float64, error) {
	a50, _ := percentile(m.admitMS, 0.5)
	a99, okA := percentile(m.admitMS, 0.99)
	t50, _ := percentile(m.turnS, 0.5)
	t99, okT := percentile(m.turnS, 0.99)
	if !okA || !okT {
		return nil, fmt.Errorf("mayad: %d tenants cannot support a p99", len(m.admitMS))
	}
	fmt.Fprintf(w, "# mayad.admit_ms p50=%.4f p99=%.4f n=%d\n", a50, a99, len(m.admitMS))
	fmt.Fprintf(w, "# mayad.turnaround_s p50=%.5f p99=%.5f n=%d\n", t50, t99, len(m.turnS))
	return map[string]float64{
		"mayad.admit_ms_p50":     a50,
		"mayad.admit_ms_p99":     a99,
		"mayad.turnaround_s_p50": t50,
		"mayad.turnaround_s_p99": t99,
		"mayad.samples":          float64(len(m.admitMS)),
	}, nil
}

func (m *mayadWorkload) traced(ctx context.Context, seed uint64, tr *telemetry.Tracer) (tracedResult, error) {
	d, _, err := boot(ctx, seed)
	if err != nil {
		return tracedResult{}, err
	}
	defer d.close()
	root := telemetry.NewRootContext("mayad", seed)

	t0 := tr.Clock()
	calls, err := d.loop(ctx, seed, 0, mayadTenants, mayadClients, mayadResident, tr, root)
	wall := seconds(tr.Clock() - t0)
	if err != nil {
		return tracedResult{}, err
	}
	t, err := mayadOutcome(seed, calls)
	if err != nil {
		return tracedResult{}, err
	}

	var status, traces, evicts []float64
	var traceBytes float64
	for _, c := range calls {
		status = append(status, c.statusMS...)
		traces = append(traces, c.traceMS...)
		evicts = append(evicts, c.evictMS...)
		traceBytes += float64(len(c.mayt))
	}
	fm := fleet.NewMetrics(d.reg)
	layers := fleetPhases(fm)
	layers["mayad.http_ms_p50.status"] = median(status)
	layers["mayad.http_ms_p50.trace"] = median(traces)
	layers["mayad.http_ms_p50.evict"] = median(evicts)
	layers["mayad.trace_bytes"] = traceBytes / float64(len(calls))
	// Every bank adds its tenant count to the tick counter on each tick
	// and one to the period counter on each period, so their ratio is the
	// tenants of a stepped bank, weighted by how long it stepped.
	layers["mayad.tenants_per_bank"] = tenantPeriods(fm) / max(float64(fm.Periods.Value()), 1)
	layers["mayad.shed"] = float64(d.reg.Counter("mayad_admission_shed_total", "").Value())
	return tracedResult{wallS: wall, fingerprint: t.fingerprint, check: t.check, layers: layers, attempted: t.attempted, failed: t.failed}, nil
}

// minLatencySamples is the sample count a p99 needs (minBeyond above it).
const minLatencySamples = 1000

// tenantPeriods is how many tenant control periods the fleet metrics saw:
// ticks summed over tenants, over ticks per period.
func tenantPeriods(fm *fleet.Metrics) float64 {
	return float64(fm.Ticks.Value()) / controlPeriodTicks
}

// fleetPhases turns the fleet phase counters into host ns per tenant-period.
func fleetPhases(fm *fleet.Metrics) map[string]float64 {
	tp := max(tenantPeriods(fm), 1)
	return map[string]float64{
		"fleet.machine_ns": float64(fm.MachineNs.Value()) / tp,
		"fleet.sense_ns":   float64(fm.SenseNs.Value()) / tp,
		"fleet.control_ns": float64(fm.ControlNs.Value()) / tp,
		"fleet.actuate_ns": float64(fm.ActuateNs.Value()) / tp,
	}
}
