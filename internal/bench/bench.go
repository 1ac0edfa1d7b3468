// Package bench is the repo's benchmark harness: it runs the Go
// benchmark suites (kernel microbenchmarks, pipeline throughput, and
// the paper-table regeneration benchmarks in bench_test.go) as `go
// test -bench` subprocesses, parses the standard benchmark output into
// structured results, and compares two result sets benchstat-style so
// CI can gate on regressions without external tooling.
//
// Driving `go test` as a subprocess — rather than linking testing.B
// into production code — keeps the benchmark bodies where they belong
// (in *_test.go files, next to the code they measure, runnable with
// plain `go test -bench`) while still giving cmd/bcebench a single
// machine-readable trajectory file (BENCH_*.json).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"time"
)

// Suite names one `go test -bench` invocation: a package and a
// benchmark pattern, with a suite-appropriate default benchtime.
type Suite struct {
	// Name tags the suite's results in reports ("kernel", "table", ...).
	Name string `json:"name"`
	// Pkg is the package path passed to go test.
	Pkg string `json:"pkg"`
	// Pattern is the -bench regexp.
	Pattern string `json:"pattern"`
	// Benchtime is the -benchtime value; empty means the go test
	// default (1s).
	Benchtime string `json:"benchtime,omitempty"`
}

// Suites resolves a suite selector to its invocations. Selectors:
//
//   - "kernel": perceptron Output/Train/Table microbenchmarks,
//     including the retained branchy reference kernels, so each run
//     carries its own speedup evidence.
//   - "pipeline": whole-simulator throughput (nil-sink vs counting
//     sink, plus the per-cycle pipeline benchmark).
//   - "table": representative paper-table regenerations from
//     bench_test.go at Quick sizes. One iteration each — these run
//     full simulations and take tens of seconds apiece.
//   - "all": all of the above.
func Suites(sel string) ([]Suite, error) {
	kernel := Suite{
		Name:    "kernel",
		Pkg:     "./internal/perceptron",
		Pattern: "^Benchmark(Output32|OutputReference32|Train32|TrainReference32|TableLookup|TableReset|TableOutputSingle8|TableTrainSingle8)$",
	}
	pipeline := Suite{
		Name:    "pipeline",
		Pkg:     "./internal/pipeline",
		Pattern: "^Benchmark(RunNilSink|RunCountingSink|Pipeline40c4w)$",
	}
	table := Suite{
		Name:      "table",
		Pkg:       ".",
		Pattern:   "^Benchmark(Table2|Table4|Fig4|SimulatorThroughput)$",
		Benchtime: "1x",
	}
	switch sel {
	case "kernel":
		return []Suite{kernel}, nil
	case "pipeline":
		return []Suite{pipeline}, nil
	case "table":
		return []Suite{table}, nil
	case "all":
		return []Suite{kernel, pipeline, table}, nil
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (kernel, pipeline, table, all)", sel)
	}
}

// Result is one benchmark's aggregated measurement. With -count > 1
// the per-run values are averaged; Samples records how many runs went
// into the mean.
type Result struct {
	Suite   string `json:"suite"`
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	// Iters is the total benchmark iterations across samples.
	Iters int64 `json:"iters"`
	// NsPerOp is the mean ns/op across samples.
	NsPerOp float64 `json:"ns_per_op"`
	// MinNsPerOp is the fastest sample — the low-noise floor.
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values by unit
	// (e.g. "sim-cycles/sec", "uop_red_%"), averaged across samples.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ReportSchema is the current trajectory-file schema version. Files
// written before versioning carry no "schema" field and load as
// version 0; loaders accept anything up to the current version.
// Version 2 added the optional per-suite profile references.
const ReportSchema = 2

// ProfileRef points at one captured profile in a content-addressed
// profile ring (internal/prof): which suite it covers, the profile
// kind, and the ring digest of the bytes. With both sides' refs and
// the ring, `bcebench -compare` turns a regression into a
// per-function attribution table.
type ProfileRef struct {
	Suite  string `json:"suite"`
	Kind   string `json:"kind"`
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Report is the trajectory file written to BENCH_*.json: one harness
// run's environment plus every suite result.
type Report struct {
	Schema  int      `json:"schema,omitempty"`
	Go      string   `json:"go"`
	OS      string   `json:"os"`
	Arch    string   `json:"arch"`
	Date    string   `json:"date"`
	Results []Result `json:"results"`
	// Profiles lists the profiles captured while the suites ran, when
	// the harness was invoked with -profile-dir.
	Profiles []ProfileRef `json:"profiles,omitempty"`
}

// FindProfile returns the profile ref for (suite, kind), or nil.
func (r *Report) FindProfile(suite, kind string) *ProfileRef {
	for i := range r.Profiles {
		if r.Profiles[i].Suite == suite && r.Profiles[i].Kind == kind {
			return &r.Profiles[i]
		}
	}
	return nil
}

// NewReport stamps an empty report with the current environment.
func NewReport() *Report {
	return &Report{
		Schema: ReportSchema,
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
		Date:   time.Now().UTC().Format(time.RFC3339),
	}
}

// Validate checks a loaded trajectory file is usable as a comparison
// baseline: a known schema version (missing = legacy version 0 is
// fine), at least one result, and every result carrying a suite, a
// name, and a positive ns/op. Catches truncated files and JSON that
// merely shares field names before a comparison silently matches
// nothing.
func (r *Report) Validate() error {
	if r.Schema < 0 || r.Schema > ReportSchema {
		return fmt.Errorf("bench: unsupported report schema %d (this build reads <= %d)", r.Schema, ReportSchema)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("bench: report has no results")
	}
	for i, res := range r.Results {
		if res.Suite == "" || res.Name == "" {
			return fmt.Errorf("bench: result %d has empty suite/name (%q/%q)", i, res.Suite, res.Name)
		}
		if !(res.NsPerOp > 0) {
			return fmt.Errorf("bench: result %s/%s has non-positive ns/op %v", res.Suite, res.Name, res.NsPerOp)
		}
	}
	return nil
}

// Find returns the result with the given suite and name, or nil.
func (r *Report) Find(suite, name string) *Result {
	for i := range r.Results {
		if r.Results[i].Suite == suite && r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Run executes one suite with `go test -bench` in dir and returns its
// parsed results. count is the -count value (min 1); benchtime, when
// non-empty, overrides the suite default. cpuProfile, when non-empty,
// is an absolute path the suite's CPU profile is written to via go
// test's -cpuprofile (the test binary goes next to it, keeping the
// repo root clean). The raw go test output is returned alongside the
// results so callers can stream or log it.
func Run(ctx context.Context, dir string, s Suite, count int, benchtime, cpuProfile string) ([]Result, []byte, error) {
	if count < 1 {
		count = 1
	}
	if benchtime == "" {
		benchtime = s.Benchtime
	}
	args := []string{"test", "-run", "^$", "-bench", s.Pattern, "-benchmem",
		"-count", fmt.Sprint(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if cpuProfile != "" {
		args = append(args, "-cpuprofile", cpuProfile, "-o", cpuProfile+".test")
	}
	args = append(args, s.Pkg)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, out, fmt.Errorf("bench: go %v: %w\n%s", args, err, bytes.TrimSpace(out))
	}
	results, err := Parse(s.Name, out)
	return results, out, err
}
