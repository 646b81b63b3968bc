// Command benchdiff compares two benchmark result files produced by
// scripts/bench.sh and fails when a selected benchmark regressed.
//
// Usage:
//
//	benchdiff [-match regexp] [-threshold frac] old.json new.json
//
// Benchmark names are normalized by stripping the -<GOMAXPROCS> suffix that
// `go test` appends, so results from machines with different core counts
// compare directly. Benchmarks whose normalized name matches -match
// (default: all) are gated:
//
//   - if new ns/op exceeds old ns/op by more than -threshold (default
//     0.25, i.e. 25%), the run fails (exit 1);
//   - if a gated benchmark is missing from either file, the run fails
//     (exit 1): a gate without a baseline, or a baseline without a fresh
//     run, checks nothing, so adding or renaming a gated benchmark means
//     re-recording the baseline;
//   - if a gated pair was measured at different iteration counts, the
//     comparison is refused (exit 2): a cold single-shot baseline against a
//     warm 10x run measures -benchtime, not the code. Record both files
//     with the same scripts/bench.sh -t.
//
// Benchmarks outside -match are printed when present in both files and
// never gate.
//
// CI runs this against the committed BENCH_<date>.json baseline to catch
// performance regressions in the gated kernels.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

// entry is one benchmark record from scripts/bench.sh JSON output. Field
// names in the file are benchmark units; only ns/op gates.
type entry struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns/op"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// load reads a bench.sh JSON file into normalized name → record.
func load(path string) (map[string]entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []entry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]entry, len(entries))
	for _, e := range entries {
		name := gomaxprocsSuffix.ReplaceAllString(e.Name, "")
		// Duplicate names (e.g. -count runs) keep the fastest: the best
		// observed time is the least noisy estimate of the code's cost.
		if prev, ok := out[name]; !ok || e.NsOp < prev.NsOp {
			out[name] = e
		}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its exit status: 0 pass, 1 regression or
// missing gated benchmark, 2 usage error or refused comparison.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	match := fs.String("match", "", "regexp of benchmark names that gate the exit status (default: all)")
	threshold := fs.Float64("threshold", 0.25, "allowed fractional ns/op increase before failing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-match regexp] [-threshold frac] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	var sel *regexp.Regexp
	if *match != "" {
		var err error
		if sel, err = regexp.Compile(*match); err != nil {
			fmt.Fprintf(stderr, "benchdiff: bad -match: %v\n", err)
			return 2
		}
	}

	old, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	names := make([]string, 0, len(old)+len(cur))
	for n := range old {
		names = append(names, n)
	}
	for n := range cur {
		if _, ok := old[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	failed, refused := 0, 0
	for _, n := range names {
		o, inOld := old[n]
		c, inCur := cur[n]
		gated := sel == nil || sel.MatchString(n)
		switch {
		case !gated && (!inOld || !inCur):
			// With -match, a partial new run is expected.
		case !inOld:
			fmt.Fprintf(stdout, "%-48s %14s %12.0f  MISSING FROM BASELINE\n", n, "-", c.NsOp)
			failed++
		case !inCur:
			fmt.Fprintf(stdout, "%-48s %14.0f %12s  MISSING FROM NEW RUN\n", n, o.NsOp, "-")
			failed++
		case !gated:
			fmt.Fprintf(stdout, "%-48s %14.0f %12.0f  %+6.1f%%  (not gated)\n", n, o.NsOp, c.NsOp, 100*(c.NsOp-o.NsOp)/o.NsOp)
		case o.Iterations != c.Iterations:
			fmt.Fprintf(stdout, "%-48s %14.0f %12.0f  REFUSED: %d vs %d iterations\n", n, o.NsOp, c.NsOp, o.Iterations, c.Iterations)
			refused++
		default:
			delta := (c.NsOp - o.NsOp) / o.NsOp
			status := ""
			if delta > *threshold {
				status = "  REGRESSION"
				failed++
			}
			fmt.Fprintf(stdout, "%-48s %14.0f %12.0f  %+6.1f%%%s\n", n, o.NsOp, c.NsOp, 100*delta, status)
		}
	}
	if refused > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d gated benchmark(s) ran at different iteration counts; re-record with the same -benchtime\n", refused)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d gated benchmark(s) regressed more than %.0f%% or are missing from one file\n", failed, 100**threshold)
		return 1
	}
	return 0
}
