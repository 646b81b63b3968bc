// Command e2ebench is the repository's end-to-end benchmark. It measures
// two workloads from outside the program, through the public surfaces of
// internal/experiments, defense, sim, core, attack, nn, fleet, mayad and
// telemetry, and prints one JSON result line:
//
//	bash e2ebench/run.sh --workload figures|mayad --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh --list    # every metric with its unit and direction
//
// run.sh builds this module (it has its own go.mod, which replaces the
// parent module with the checkout it sits in) into .bench_build/ and runs
// it from the repository root. The first lines of the output are detail
// lines starting with "#": a stamp (workload, seed, Go version,
// GOMAXPROCS, nproc, commit), the per-iteration wall times and output
// fingerprint, and every latency percentile with its sample count. The
// last line is {"correct", "attempted", "failed", "metrics"}.
//
// # Workloads
//
// Each workload takes its seed as an argument and hands the program only
// inputs derived from it. An iteration is a fresh set-up followed by a
// timed region doing a fixed amount of work; a run repeats iterations for
// about --seconds (and until every percentile has 1,000 samples), never
// starting one that would end past the budget, and reports medians over
// them. Set-ups are repeated between iterations until they take about 5%
// of the run, so the setup_s samples spread over the whole run.
//
// On a small shared VM the host's own speed moves by a fifth or more for
// tens of seconds at a time, for every workload and thread count alike
// (runs of one seed with one and with two processors, alternated, kept a
// steady ratio while both drifted). A run's median is therefore only as
// steady as the stretch of host time it covers, so the benchmark runs two
// workloads for a minute each rather than more workloads for less.
//
//   - figures: experiments.RunSuite over fig6 and fig9 at Small() scale
//     with 10 traces per label instead of 40 (figuresScale), two workers,
//     experiment cache off, so an iteration takes seconds and a run holds
//     many. Three defenses × (Sys1, 11 apps,
//     RAPL at 20 ms, one-hot window MLP) and three defenses × (Sys3, 7
//     pages, outlet at 50 ms, FFT MLP). It is the reproduction's own
//     product. The scalar defense path (sim.Run + core.Engine) carries
//     about half its CPU and the attacker (attack/nn/signal) the other
//     half; it never touches fleet or mayad. Two sensor kinds and two
//     feature kinds mean a gain on RAPL/one-hot that costs outlet/FFT
//     shows.
//   - mayad: an in-process mayad.Server with 2 shards, served over
//     loopback HTTP through debugsrv.ServeHandler as cmd/mayad mounts it.
//     A closed loop of 2 clients (the core count) each keeps 4 tenants
//     resident and repeats admit (POST /tenants), poll, fetch the MAYT
//     trace, DELETE, re-admit. Tenants carry distinct (seed, index) pairs
//     over three bank keys (gs/sys1/blackscholes, random/sys1/blackscholes,
//     gs/sys3/web/google). HTTP, admission, bank packing and trace export
//     run only here, with writes beside reads. The batched fleet path
//     (fleet.Engine) does its work here and none in figures; churn packs
//     many small banks, so a change that helps only big banks shows its
//     cost here.
//
// # Metrics
//
// An untraced run (--trace 0) reports the end-to-end metrics, the same
// six on every workload: setup_s, wall_s, cpu_s (getrusage user+sys),
// alloc_bytes (/gc/heap/allocs:bytes), peak_rss_bytes and
// tenant_periods_per_s (defense control periods completed per host
// second: every collection run's periods in figures, the fetched traces'
// periods in mayad). The latency percentiles that exist on only one
// workload (admit; admit to trace fetched) are printed with their sample counts on every
// run and reported as per-layer metrics.
//
// A traced run (--trace 1) runs untraced iterations only until it has a
// reference fingerprint, wall time and the latency samples, then one
// traced iteration, and reports the per-layer metrics; a layer the
// workload never calls reads 0. Spans come from this package's code
// around each layer call (telemetry.Tracer, parent-linked, written as
// Chrome trace JSON to .bench_build/traces at the end). Per-tick layers
// are timed on every call and kept as spans only for sampled control
// periods; each timed call has the tracer clock's own measured cost
// subtracted. For figures the traced iteration rebuilds every collection
// run from public calls (sim.NewMachine, Class.New, Design.Policy, and
// sim.Run with wrapped workload, sensors and a policy that calls
// BeginStep, Controller().Step and FinishStep as Decide does) and the
// attack in attack.Run's order; it must reproduce the suite's accuracies
// exactly. The rebuild runs the two figures one after the other, so the
// heap-allocation deltas taken around each collection fan-out and each
// training stage belong to that stage alone.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	layer metric                                   moves                     on
//	sim.step_ns_per_tick, sim.ticks                wall_s, cpu_s             figures
//	workload.ns_per_tick                           wall_s                    figures
//	sim.sensor_ns_per_tick.{rapl,outlet},
//	  sim.defense_sensor_ns_per_period             wall_s                    figures
//	mask/control/actuator.ns_per_period,
//	  defense.policy_ns_per_period                 wall_s, cpu_s             figures
//	sim.run_alloc_bytes_per_tick                   alloc_bytes, cpu_s        figures
//	runner.queue_wait_s_p50, runner.jobs           wall_s                    figures
//	attack.featurize_s.{onehot,fft},
//	  attack.examples                              wall_s                    figures
//	nn.train_s, nn.epochs, nn.train_alloc_bytes,
//	  nn.evaluate_s                                wall_s, cpu_s, alloc      figures
//	fleet.{machine,sense,control,actuate}_ns       tenant_periods_per_s,
//	  (per tenant-period)                            mayad.turnaround_s_*    mayad
//	mayad.http_ms_p50.{status,trace,evict},
//	  mayad.trace_bytes                            mayad.turnaround_s_*      mayad
//	mayad.tenants_per_bank, mayad.shed             tenant_periods_per_s,
//	                                                 failed share            mayad
//	core.design_s                                  setup_s                   all
//	runtime.gc_cpu_s, bench.trace_overhead         cpu_s, the p99s           all
//
// # Checks
//
// A run is correct only if every iteration of its seed produces the same
// output fingerprint (figures: the experiments.WriteReport body; mayad:
// the fetched MAYT bytes in (seed, index) order), the traced iteration's fingerprint equals the untraced
// one, and the first tenant of each mayad bank key matches a solo
// fleet.Engine run with the same fleet.TenantSeeds(seed, index). Failed
// operations count against attempted ones: a suite entry that errors, a
// non-2xx response (a 503 shed included), a tenant that does not record
// every period.
package main
