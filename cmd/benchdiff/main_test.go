package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunExitStatus(t *testing.T) {
	base := writeBench(t, `[
  {"name": "BenchmarkA-2", "iterations": 10, "ns/op": 100},
  {"name": "BenchmarkB-2", "iterations": 10, "ns/op": 100}
]`)
	for _, c := range []struct {
		name  string
		fresh string
		match string
		code  int
		out   string
	}{
		{"within threshold", `[{"name": "BenchmarkA-8", "iterations": 10, "ns/op": 120}, {"name": "BenchmarkB-8", "iterations": 10, "ns/op": 90}]`, "", 0, "+20.0%"},
		{"regression", `[{"name": "BenchmarkA-2", "iterations": 10, "ns/op": 130}, {"name": "BenchmarkB-2", "iterations": 10, "ns/op": 100}]`, "", 1, "REGRESSION"},
		{"ungated regression", `[{"name": "BenchmarkA-2", "iterations": 10, "ns/op": 500}, {"name": "BenchmarkB-2", "iterations": 10, "ns/op": 100}]`, "B$", 0, "(not gated)"},
		{"gated name missing from baseline", `[{"name": "BenchmarkA-2", "iterations": 10, "ns/op": 100}, {"name": "BenchmarkC-2", "iterations": 10, "ns/op": 100}]`, "A|C", 1, "MISSING FROM BASELINE"},
		{"gated name missing from new run", `[{"name": "BenchmarkA-2", "iterations": 10, "ns/op": 100}]`, "A|B", 1, "MISSING FROM NEW RUN"},
		{"ungated names missing", `[{"name": "BenchmarkA-2", "iterations": 10, "ns/op": 100}, {"name": "BenchmarkC-2", "iterations": 10, "ns/op": 100}]`, "A$", 0, "BenchmarkA"},
		{"iteration counts differ", `[{"name": "BenchmarkA-2", "iterations": 1, "ns/op": 100}, {"name": "BenchmarkB-2", "iterations": 10, "ns/op": 100}]`, "", 2, "REFUSED: 10 vs 1 iterations"},
		{"ungated iteration counts differ", `[{"name": "BenchmarkA-2", "iterations": 1, "ns/op": 100}, {"name": "BenchmarkB-2", "iterations": 10, "ns/op": 100}]`, "B$", 0, "(not gated)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{base, writeBench(t, c.fresh)}
			if c.match != "" {
				args = append([]string{"-match", c.match}, args...)
			}
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.out) {
				t.Fatalf("stdout lacks %q:\n%s", c.out, stdout.String())
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out bytes.Buffer
	base := writeBench(t, `[]`)
	for _, args := range [][]string{
		{base},
		{"-match", "(", base, base},
		{base, filepath.Join(t.TempDir(), "absent.json")},
		{base, writeBench(t, `{nope`)},
	} {
		if code := run(args, &out, &out); code != 2 {
			t.Fatalf("args %q: exit %d, want 2", args, code)
		}
	}
}
