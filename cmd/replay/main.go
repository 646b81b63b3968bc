// Command replay converts workloads to and from demand traces, the bridge
// between real profiling data and the simulator: record any built-in
// workload as a per-millisecond CSV (threads, activity, memfrac), or replay
// such a CSV — hand-written, profiled on real hardware, or previously
// recorded — under any defense design.
//
// Usage:
//
//	replay -record blackscholes -seconds 10 -o trace.csv
//	replay -play trace.csv [-defense gs] [-machine sys1] [-seconds 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/plot"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

func main() {
	record := flag.String("record", "", "workload to record as a demand trace")
	play := flag.String("play", "", "demand-trace CSV to replay")
	out := flag.String("o", "trace.csv", "output file for -record")
	seconds := flag.Float64("seconds", 10, "duration to record or replay")
	scale := flag.Float64("scale", 0.2, "workload scale for -record")
	machine := flag.String("machine", "sys1", "machine preset for -play")
	defName := flag.String("defense", "gs", "defense for -play")
	seed := flag.Uint64("seed", 1, "seed")
	loop := flag.Bool("loop", false, "loop the replayed trace")
	flag.Parse()

	switch {
	case *record != "":
		doRecord(*record, *out, *seconds, *scale, *seed)
	case *play != "":
		doPlay(*play, *machine, *defName, *seconds, *seed, *loop)
	default:
		log.Fatal("need -record <workload> or -play <trace.csv>")
	}
}

func doRecord(name, out string, seconds, scale float64, seed uint64) {
	var w workload.Workload
	switch {
	case strings.HasPrefix(name, "video/"):
		w = workload.NewVideo(strings.TrimPrefix(name, "video/")).Scale(scale)
	case strings.HasPrefix(name, "web/"):
		w = workload.NewPage(strings.TrimPrefix(name, "web/")).Scale(scale)
	default:
		w = workload.NewApp(name).Scale(scale)
	}
	w.Reset(seed)
	// Execute on a baseline machine while recording, so work-based phase
	// structure appears in the trace.
	demands := sim.RecordDemands(sim.Sys1(), w, int(seconds*1000), seed)
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := workload.WriteDemandsCSV(f, demands); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d ticks of %s to %s\n", len(demands), name, out)
}

func doPlay(path, machine, defName string, seconds float64, seed uint64, loop bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	demands, err := workload.ReadDemandsCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	var cfg sim.Config
	switch machine {
	case "sys1":
		cfg = sim.Sys1()
	case "sys2":
		cfg = sim.Sys2()
	case "sys3":
		cfg = sim.Sys3()
	default:
		log.Fatalf("unknown machine %q", machine)
	}
	var kind defense.Kind
	switch defName {
	case "baseline":
		kind = defense.Baseline
	case "noisy":
		kind = defense.NoisyBaseline
	case "random":
		kind = defense.RandomInputs
	case "constant":
		kind = defense.MayaConstant
	case "gs":
		kind = defense.MayaGS
	default:
		log.Fatalf("unknown defense %q", defName)
	}

	var art *core.Design
	if kind.IsMaya() {
		log.Printf("designing Maya controller for %s...", cfg.Name)
		art, err = core.DesignFor(cfg, core.DefaultDesignOptions())
		if err != nil {
			log.Fatal(err)
		}
	}
	w := workload.NewReplay(path, demands, loop)
	m := sim.NewMachine(cfg, seed)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(seed + 2)
	res := sim.Run(m, w, pol, sim.RunSpec{
		ControlPeriodTicks: 20,
		MaxTicks:           int(seconds * 1000),
		WarmupTicks:        2000,
	})
	b := signal.Box(res.DefenseSamples)
	fmt.Printf("replayed %d ticks (%s) under %v on %s\n", w.Len(), path, kind, cfg.Name)
	fmt.Printf("power: median %.1f W, IQR %.1f W; energy %.0f J\n", b.Median, b.IQR(), res.EnergyJ)
	fmt.Print(plot.Line(res.DefenseSamples, 100, 8))
}
