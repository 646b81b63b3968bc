package difftest

import (
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/sim"
)

// TestFleetMatchesScalar is the headline equivalence table: every defense
// kind, tenant counts 1/2/16, short app workloads, warmup, flight
// recorders, and guards — each case bit-compared tenant by tenant against
// the scalar reference.
func TestFleetMatchesScalar(t *testing.T) {
	cfg := sim.Sys1()
	cases := []Case{}
	for _, kind := range defense.Kinds {
		for _, tenants := range []int{1, 2, 16} {
			cases = append(cases, Case{
				Name:    kind.String(),
				Config:  cfg,
				Kind:    kind,
				Tenants: tenants,
				Ticks:   400,
				Seed:    0xfee1 + uint64(tenants),
				Scale:   0.02,
				Flight:  64,
				Guard:   true,
			})
		}
	}
	// Warmup alignment: recording starts mid-operation.
	cases = append(cases, Case{
		Name: "gs-warmup", Config: cfg, Kind: defense.MayaGS,
		Tenants: 3, Ticks: 300, Warmup: 100, Seed: 7, Scale: 0.02,
		Flight: 64, Guard: true,
	})
	// Idle fleet (no workload).
	cases = append(cases, Case{
		Name: "constant-idle", Config: cfg, Kind: defense.MayaConstant,
		Tenants: 4, Ticks: 300, Seed: 9, Flight: 64, Guard: true,
	})
	// A second machine config.
	cases = append(cases, Case{
		Name: "sys3-gs", Config: sim.Sys3(), Kind: defense.MayaGS,
		Tenants: 4, Ticks: 300, Seed: 11, Scale: 0.02, Flight: 64, Guard: true,
	})
	for _, c := range cases {
		c := c
		t.Run(c.Name+"/"+itoa(c.Tenants), func(t *testing.T) {
			t.Parallel()
			if err := Diff(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFleetMatchesScalarUnderFaults pins equivalence under every canned
// fault plan — sensor glitches, counter wraps, stuck actuators, deadline
// misses, and all of them at once — for the Maya kinds with guard and
// flight attached, plus a non-Maya control.
func TestFleetMatchesScalarUnderFaults(t *testing.T) {
	cfg := sim.Sys1()
	var cases []Case
	for _, plan := range fault.Plans() {
		for _, kind := range []defense.Kind{defense.MayaGS, defense.MayaConstant, defense.RandomInputs} {
			cases = append(cases, Case{
				Name:    kind.String() + "/" + plan.Name,
				Config:  cfg,
				Kind:    kind,
				Tenants: 3,
				Ticks:   400,
				Seed:    0xbad + uint64(len(cases)),
				Plan:    plan,
				Scale:   0.02,
				Flight:  64,
				Guard:   true,
			})
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := Diff(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
