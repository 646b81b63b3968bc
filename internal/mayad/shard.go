package mayad

import (
	"bytes"
	"slices"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/workload"
)

// command is one unit of shard work, delivered over the bounded queue.
type command struct {
	admit    *tenant
	evict    int
	hasEvict bool
}

// run is one running tenant and the one-slot fleet engine stepping it.
type run struct {
	tn  *tenant
	eng *fleet.Engine
}

// shard is one scheduler worker: it owns its engines outright (only the
// shard goroutine calls engine methods) and talks to the rest of the
// daemon through the bounded cmds queue, its spill ring, and brief
// Server.mu sections.
type shard struct {
	s     *Server
	id    int
	cmds  chan command
	stop  chan struct{}
	spill *spill

	// runs and pending (admitted tenants awaiting launch) are shard
	// goroutine only.
	runs    []run
	pending []*tenant
}

func newShard(s *Server, id int) *shard {
	return &shard{
		s: s, id: id,
		cmds:  make(chan command, s.cfg.QueueDepth),
		stop:  make(chan struct{}),
		spill: newSpill(s.cfg.SpillLimit, s.met.SpillDropped),
	}
}

// loop is the shard scheduler: drain commands, launch pending tenants,
// advance every running tenant one control period, repeat. On stop it
// finalizes running tenants at the period boundary so each holds a
// bit-identical prefix of its full run.
func (sh *shard) loop() {
	for {
		if len(sh.runs) == 0 && len(sh.pending) == 0 {
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
		if sh.s.cfg.Pace > 0 && len(sh.runs) > 0 {
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
			sh.pending = slices.Delete(sh.pending, i, i+1)
			sh.s.transition(tn, StateEvicted, 0, fleet.TenantResult{}, nil)
			return
		}
	}
	for i, r := range sh.runs {
		if r.tn.id == id {
			sh.runs = slices.Delete(sh.runs, i, i+1)
			sh.s.transition(r.tn, StateEvicted, r.eng.Tick(), fleet.TenantResult{}, nil)
			return
		}
	}
}

// launch starts every pending tenant as its own one-slot fleet engine
// carrying fleet.TenantSeeds(seed, index): bit-identical to slot index of
// a solo fleet run with base seed seed.
func (sh *shard) launch() {
	for _, tn := range sh.pending {
		sh.start(tn)
	}
	sh.pending = sh.pending[:0]
}

func (sh *shard) start(tn *tenant) {
	sp := tn.spec
	maya := tn.kind.IsMaya()

	var art *core.Design
	if maya {
		var err error
		art, err = sh.s.designs.Get(tn.cfg)
		if err != nil {
			sh.s.fail(tn, err)
			return
		}
	}

	spec := fleet.Spec{
		Config:      tn.cfg,
		Kind:        tn.kind,
		Art:         art,
		PeriodTicks: PeriodTicks,
		Tenants:     1,
		SeedAt: func(int) (uint64, uint64, uint64, uint64) {
			return fleet.TenantSeeds(sp.Seed, sp.Index)
		},
		Plan:        tn.plan,
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
		g := core.DefaultGuard(tn.cfg)
		spec.Guard = &g
	}
	if sp.Flight {
		spec.FlightCapacity = sp.WarmupTicks/PeriodTicks + sp.MaxTicks/PeriodTicks + 8
	}

	eng := fleet.New(spec)
	eng.SetMetrics(sh.s.fleetM)
	eng.Start()
	sh.runs = append(sh.runs, run{tn: tn, eng: eng})
	sh.s.setState(tn, StateRunning)
}

// stepOnce advances every running tenant one control period, spilling
// the period's reading, and finalizes tenants that reached MaxTicks.
func (sh *shard) stepOnce() {
	kept := sh.runs[:0]
	for _, r := range sh.runs {
		step := r.eng.Step()
		more := r.eng.StepPeriod()
		if r.eng.Step() != step {
			sh.spill.push(SpillSample{
				Shard: sh.id, Tenant: r.tn.id, Step: r.eng.Step(), PowerW: r.eng.Reading(0),
			})
		}
		if more {
			r.tn.tick.Store(int64(r.eng.Tick()))
			kept = append(kept, r)
			continue
		}
		sh.finalize(r, StateDone)
	}
	clear(sh.runs[len(kept):])
	sh.runs = kept
}

// finalize reads a run's result and hands it to its tenant; state is
// StateDone for natural completion, StateDrained when the daemon stopped
// the run early (the result is then a bit-identical prefix of the full
// run).
func (sh *shard) finalize(r run, state string) {
	res := r.eng.Results()[0]
	var flight []byte
	if res.Flight != nil {
		var buf bytes.Buffer
		if err := res.Flight.Flush(&buf); err == nil {
			flight = buf.Bytes()
		}
	}
	res.Flight = nil
	sh.s.transition(r.tn, state, r.eng.Tick(), res, flight)
}

// shutdown drains the command queue (late admissions finalize empty, as
// drained), then finalizes every running tenant at the current period
// boundary.
func (sh *shard) shutdown() {
	for {
		select {
		case cmd := <-sh.cmds:
			sh.handle(cmd)
		default:
			for _, tn := range sh.pending {
				sh.s.transition(tn, StateDrained, 0, fleet.TenantResult{}, nil)
			}
			sh.pending = nil
			for _, r := range sh.runs {
				sh.finalize(r, StateDrained)
			}
			sh.runs = nil
			return
		}
	}
}
