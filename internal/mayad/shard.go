package mayad

import (
	"bytes"
	"sync"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/workload"
)

// command is one unit of shard work, delivered over the bounded queue.
type command struct {
	admit    *tenant
	evict    int
	hasEvict bool
}

// bankKey groups pending admissions that can share one fleet bank: the
// whole fleet.Spec apart from the per-slot seeds. Per-tenant independence
// means the grouping never shows in a trace — it only batches the
// arithmetic.
type bankKey struct {
	machine  string
	kind     defense.Kind
	workload string
	scale    float64
	warmup   int
	maxTicks int
	faults   string
	flight   bool
}

func (tn *tenant) key() bankKey {
	return bankKey{
		machine: tn.spec.Machine, kind: tn.kind,
		workload: tn.spec.Workload, scale: tn.spec.Scale,
		warmup: tn.spec.WarmupTicks, maxTicks: tn.spec.MaxTicks,
		faults: tn.spec.Faults, flight: tn.spec.Flight,
	}
}

// bank is one fleet engine in flight plus the tenants in its slots.
type bank struct {
	eng   *fleet.Engine
	spill *fleet.Spill
	slots []*tenant
}

// shard is one scheduler worker: it owns its banks outright (only the
// shard goroutine calls engine methods) and talks to the rest of the
// daemon through the bounded cmds queue and brief Server.mu sections.
type shard struct {
	s    *Server
	id   int
	cmds chan command
	stop chan struct{}

	// mu guards the banks slice for the spill-drain reader; the engines
	// themselves are shard-goroutine-only.
	mu    sync.Mutex
	banks []*bank

	// pending holds admitted tenants awaiting bank launch; shard
	// goroutine only.
	pending []*tenant
}

func newShard(s *Server, id int) *shard {
	return &shard{
		s: s, id: id,
		cmds: make(chan command, s.cfg.QueueDepth),
		stop: make(chan struct{}),
	}
}

// loop is the shard scheduler: drain commands, launch pending tenants
// into banks, advance every bank one control period, repeat. On stop it
// finalizes in-flight banks at the period boundary so every tenant holds
// a bit-identical prefix of its full run.
func (sh *shard) loop() {
	for {
		if len(sh.banks) == 0 && len(sh.pending) == 0 {
			// Idle: block until work or drain arrives.
			select {
			case cmd := <-sh.cmds:
				sh.handle(cmd)
			case <-sh.stop:
				sh.shutdown()
				return
			}
		}
	drain:
		for {
			select {
			case cmd := <-sh.cmds:
				sh.handle(cmd)
			default:
				break drain
			}
		}
		select {
		case <-sh.stop:
			sh.shutdown()
			return
		default:
		}
		sh.launch()
		sh.stepOnce()
		if sh.s.cfg.Pace > 0 && len(sh.banks) > 0 {
			time.Sleep(sh.s.cfg.Pace)
		}
	}
}

func (sh *shard) handle(cmd command) {
	if cmd.admit != nil {
		sh.pending = append(sh.pending, cmd.admit)
	}
	if cmd.hasEvict {
		sh.evict(cmd.evict)
	}
}

func (sh *shard) evict(id int) {
	for i, tn := range sh.pending {
		if tn.id == id {
			sh.pending = append(sh.pending[:i], sh.pending[i+1:]...)
			sh.s.transition(tn, StateEvicted, fleet.TenantResult{}, nil)
			return
		}
	}
	for bi, b := range sh.banks {
		for slot, tn := range b.slots {
			if tn == nil || tn.id != id {
				continue
			}
			b.eng.Evict(slot)
			sh.mu.Lock() // the spill reader iterates b.slots
			b.slots[slot] = nil
			sh.mu.Unlock()
			sh.s.transition(tn, StateEvicted, fleet.TenantResult{}, nil)
			if b.eng.Alive() == 0 {
				// Every slot is dead: the bank is pure overhead, drop it.
				sh.removeBank(bi)
			}
			return
		}
	}
}

// launch groups pending tenants by bank key and starts one fleet bank per
// group. Tenants admitted in one scheduler pass with identical specs
// share a bank; the grouping is invisible in their traces.
func (sh *shard) launch() {
	if len(sh.pending) == 0 {
		return
	}
	groups := make(map[bankKey][]*tenant)
	var order []bankKey
	for _, tn := range sh.pending {
		k := tn.key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], tn)
	}
	sh.pending = sh.pending[:0]
	for _, k := range order {
		sh.launchBank(groups[k])
	}
}

func (sh *shard) launchBank(group []*tenant) {
	lead := group[0]
	sp := lead.spec
	maya := lead.kind.IsMaya()

	var art *core.Design
	if maya {
		var err error
		art, err = sh.s.designs.Get(lead.cfg)
		if err != nil {
			for _, tn := range group {
				sh.s.fail(tn, err)
			}
			return
		}
	}

	spec := fleet.Spec{
		Config:      lead.cfg,
		Kind:        lead.kind,
		Art:         art,
		PeriodTicks: PeriodTicks,
		Tenants:     len(group),
		SeedAt: func(t int) (uint64, uint64, uint64, uint64) {
			return fleet.TenantSeeds(group[t].spec.Seed, group[t].spec.Index)
		},
		Plan:        lead.plan,
		WarmupTicks: sp.WarmupTicks,
		MaxTicks:    sp.MaxTicks,
	}
	if sp.Workload != "idle" {
		name, scale := sp.Workload, sp.Scale
		spec.NewWorkload = func() workload.Workload {
			w, err := workload.New(name, scale)
			if err != nil {
				panic(err) // validated at admission
			}
			return w
		}
	}
	if sp.Faults != "" && maya {
		g := core.DefaultGuard(lead.cfg)
		spec.Guard = &g
	}
	if sp.Flight {
		spec.FlightCapacity = sp.WarmupTicks/PeriodTicks + sp.MaxTicks/PeriodTicks + 8
	}

	eng := fleet.New(spec)
	eng.SetMetrics(sh.s.fleetM)
	spill := fleet.NewSpill(sh.s.cfg.SpillLimit)
	spill.SetDropCounter(sh.s.fleetM.SpillDropped)
	eng.SetSpill(spill)
	eng.Start()

	b := &bank{eng: eng, spill: spill, slots: append([]*tenant(nil), group...)}
	sh.mu.Lock()
	sh.banks = append(sh.banks, b)
	sh.mu.Unlock()
	sh.s.met.Banks.Add(1)
	for _, tn := range group {
		sh.s.setState(tn, StateRunning)
	}
}

// stepOnce advances every bank one control period, finalizing banks that
// reached MaxTicks.
func (sh *shard) stepOnce() {
	for bi := 0; bi < len(sh.banks); {
		b := sh.banks[bi]
		if b.eng.StepPeriod() {
			bi++
			continue
		}
		sh.finalize(b, StateDone)
		sh.removeBank(bi)
	}
}

// finalize reads a bank's results and hands each surviving tenant its
// trace; state is StateDone for natural completion, StateDrained when the
// daemon stopped the run early (the results are then a bit-identical
// prefix of the full run).
func (sh *shard) finalize(b *bank, state string) {
	results := b.eng.Results()
	for slot, tn := range b.slots {
		if tn == nil {
			continue
		}
		res := results[slot]
		var flight []byte
		if res.Flight != nil {
			var buf bytes.Buffer
			if err := res.Flight.Flush(&buf); err == nil {
				flight = buf.Bytes()
			}
		}
		res.Flight = nil
		sh.s.transition(tn, state, res, flight)
	}
}

func (sh *shard) removeBank(i int) {
	sh.mu.Lock()
	sh.banks = append(sh.banks[:i], sh.banks[i+1:]...)
	sh.mu.Unlock()
	sh.s.met.Banks.Add(-1)
}

// shutdown drains the command queue (late admissions finalize empty, as
// drained), then finalizes every in-flight bank at the current period
// boundary.
func (sh *shard) shutdown() {
	for {
		select {
		case cmd := <-sh.cmds:
			sh.handle(cmd)
		default:
			for _, tn := range sh.pending {
				sh.s.transition(tn, StateDrained, fleet.TenantResult{}, nil)
			}
			sh.pending = nil
			for _, b := range sh.banks {
				sh.finalize(b, StateDrained)
			}
			sh.mu.Lock()
			sh.banks = nil
			sh.mu.Unlock()
			return
		}
	}
}

// spillSamples drains this shard's bank spills, translating bank slots to
// tenant ids.
func (sh *shard) spillSamples() []SpillSample {
	sh.mu.Lock()
	banks := append([]*bank(nil), sh.banks...)
	sh.mu.Unlock()
	var out []SpillSample
	for _, b := range banks {
		for _, smp := range b.spill.Drain() {
			id := -1
			if smp.Tenant < len(b.slots) && b.slots[smp.Tenant] != nil {
				id = b.slots[smp.Tenant].id
			}
			out = append(out, SpillSample{
				Shard: sh.id, Tenant: id, Step: smp.Step, PowerW: smp.PowerW,
			})
		}
	}
	return out
}
