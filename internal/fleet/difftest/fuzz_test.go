package difftest

import (
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/sim"
)

// FuzzFleetMatchesScalar randomizes the whole case space — seed, tenant
// count, run length, defense kind, fault plan, workload scale, warmup —
// and requires each fleet tenant's trace to equal its sim.Run trace byte for
// byte. Any divergence the table tests missed (a fault-stream draw out of
// order, a seed wired to the wrong piece, an off-by-one at a period
// boundary) surfaces here as a one-line reproducer.
func FuzzFleetMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(200), uint8(4), uint8(0), uint8(2), false)
	f.Add(uint64(42), uint8(1), uint16(100), uint8(3), uint8(6), uint8(1), true)
	f.Add(uint64(7), uint8(5), uint16(300), uint8(4), uint8(5), uint8(0), false)
	f.Add(uint64(0xbad), uint8(3), uint16(150), uint8(2), uint8(4), uint8(3), true)
	f.Add(uint64(99), uint8(8), uint16(80), uint8(0), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, tenants uint8, ticks uint16, kindSel, planSel, scaleSel uint8, warmup bool) {
		plans := fault.Plans()
		c := Case{
			Name:    "fuzz",
			Config:  sim.Sys1(),
			Kind:    defense.Kinds[int(kindSel)%len(defense.Kinds)],
			Tenants: 1 + int(tenants%8),
			Ticks:   40 + int(ticks%360),
			Seed:    seed,
			Scale:   float64(scaleSel%5) * 0.01,
			Flight:  32,
			Guard:   true,
		}
		if sel := int(planSel) % (len(plans) + 1); sel > 0 {
			c.Plan = plans[sel-1]
		}
		if warmup {
			c.Warmup = 60
		}
		if err := Diff(c); err != nil {
			t.Fatal(err)
		}
	})
}
