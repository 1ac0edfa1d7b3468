// Command bcebench is the benchmark harness mode: it runs the repo's
// benchmark suites via `go test -bench`, writes a machine-readable
// trajectory file (BENCH_*.json), and compares two such files
// benchstat-style so CI can gate on performance regressions.
//
// Examples:
//
//	bcebench -suite kernel -count 5 -out BENCH_pr3.json
//	bcebench -suite all -progress -out BENCH_pr3.json
//	bcebench -suite kernel -min-speedup 2.0          # kernel vs reference gate
//	bcebench -compare old.json -against new.json -max-regress 10
//
// With -profile-dir, every suite's `go test -bench` run also captures
// a CPU profile into the content-addressed profile ring and records
// its digest in the report; a later -compare that trips the
// regression gate then prints a per-function attribution table naming
// the symbols the time moved into (see docs/observability.md).
//
// See docs/performance.md for the profiling and trajectory workflow.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"bce/internal/bench"
	"bce/internal/cli"
	"bce/internal/manifest"
	"bce/internal/prof"
	"bce/internal/runner"
)

func main() {
	var (
		suite      = flag.String("suite", "kernel", "suite to run: kernel, pipeline, table, all")
		count      = flag.Int("count", 1, "benchmark repetitions (-count); means are reported")
		benchtime  = flag.String("benchtime", "", "override -benchtime for every suite (e.g. 100ms, 10x)")
		out        = flag.String("out", "", "write the JSON report to this file (default BENCH_<short-git-rev>.json)")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless every kernel-vs-reference speedup is at least this ratio (0 disables)")
		compare    = flag.String("compare", "", "baseline JSON report; compare-only mode unless -suite also runs")
		against    = flag.String("against", "", "candidate JSON report to compare against the -compare baseline (default: this run's results)")
		maxRegress = flag.Float64("max-regress", 10, "fail the comparison when any shared benchmark slows down by more than this percent")
		profileDir = flag.String("profile-dir", "", "content-addressed profile ring each suite's CPU profile is written to, for attributing regressions (empty = no profiles)")
		profileTop = flag.Int("profile-top", 10, "symbols per suite in the regression attribution table")
		progress   = flag.Bool("progress", false, "report per-suite progress on stderr")
		verbose    = flag.Bool("v", false, "stream raw go test output to stderr")
	)
	// The first SIGINT/SIGTERM cancels remaining suites (the in-flight
	// `go test -bench` child sees its context die).
	cli.Main(cli.Spec{
		Name:   "bcebench",
		Labels: map[string]string{"bench_schema": fmt.Sprint(bench.ReportSchema)},
	}, func(env cli.Env) error {
		return run(env.Ctx, *suite, *count, *benchtime, *out, *minSpeedup,
			*compare, *against, *maxRegress, *profileDir, *profileTop, *progress, *verbose)
	})
}

func run(ctx context.Context, suite string, count int, benchtime, out string, minSpeedup float64,
	compare, against string, maxRegress float64, profileDir string, profileTop int,
	progress, verbose bool) error {
	if out == "" && !(compare != "" && against != "") {
		// Default the trajectory file name to the revision it measures,
		// so successive runs on different commits never clobber each
		// other.
		out = "BENCH_" + manifest.ShortRevision() + ".json"
	}

	var ring *prof.Ring
	if profileDir != "" {
		var err error
		if ring, err = prof.OpenRing(profileDir, 0, 0); err != nil {
			return err
		}
	}

	// Pure compare mode: two existing reports, no benchmarks run.
	if compare != "" && against != "" {
		old, err := load(compare)
		if err != nil {
			return err
		}
		cand, err := load(against)
		if err != nil {
			return err
		}
		return gate(old, cand, maxRegress, ring, profileTop)
	}

	suites, err := bench.Suites(suite)
	if err != nil {
		return err
	}
	var profTmp string
	if ring != nil {
		profTmp, err = os.MkdirTemp("", "bcebench-prof-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(profTmp)
	}
	report := bench.NewReport()
	pool := runner.New(runner.Options{
		// Benchmarks are timing-sensitive; never run suites concurrently.
		Workers: 1,
		Progress: func(p runner.Progress) {
			if progress {
				fmt.Fprintf(os.Stderr, "bcebench: %d/%d suites done (%.0fs elapsed)\n",
					p.Done, p.Total, p.Elapsed.Seconds())
			}
		},
	})
	err = runner.ForEach(ctx, pool, suites, func(ctx context.Context, i int, s bench.Suite) error {
		if progress {
			fmt.Fprintf(os.Stderr, "bcebench: running suite %q (%s -bench %s)\n", s.Name, s.Pkg, s.Pattern)
		}
		start := time.Now()
		var cpuProfile string
		if ring != nil {
			cpuProfile = filepath.Join(profTmp, s.Name+".cpu.pb.gz")
		}
		results, raw, err := bench.Run(ctx, ".", s, count, benchtime, cpuProfile)
		if verbose {
			os.Stderr.Write(raw)
		}
		if err != nil {
			return err
		}
		report.Results = append(report.Results, results...)
		if cpuProfile != "" {
			// Best-effort: a missing/empty profile degrades attribution,
			// never the benchmark run itself.
			if data, err := os.ReadFile(cpuProfile); err == nil && len(data) > 0 {
				if digest, err := ring.Put(data); err == nil {
					report.Profiles = append(report.Profiles, bench.ProfileRef{
						Suite: s.Name, Kind: "cpu", Digest: digest, Bytes: int64(len(data)),
					})
				} else {
					slog.Warn("profile store failed", "suite", s.Name, "err", err)
				}
			} else {
				slog.Warn("suite produced no CPU profile", "suite", s.Name)
			}
		}
		if progress {
			fmt.Fprintf(os.Stderr, "bcebench: suite %q: %d benchmarks in %.1fs\n",
				s.Name, len(results), time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}

	for _, r := range report.Results {
		fmt.Printf("%-10s %-24s %12.2f ns/op %10.0f allocs/op", r.Suite, r.Name, r.NsPerOp, r.AllocsPerOp)
		for unit, v := range r.Metrics {
			fmt.Printf("  %.4g %s", v, unit)
		}
		fmt.Println()
	}
	for _, sp := range bench.KernelSpeedups(report) {
		fmt.Printf("speedup    %-24s %12.2fx vs %s\n", sp.Name, sp.Ratio, sp.Against)
		if minSpeedup > 0 && sp.Ratio < minSpeedup {
			return fmt.Errorf("%s is only %.2fx faster than %s, need >= %.2fx",
				sp.Name, sp.Ratio, sp.Against, minSpeedup)
		}
	}

	if out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bcebench: wrote %s (%d results)\n", out, len(report.Results))
	}

	// -compare without -against gates this fresh run against a
	// committed baseline.
	if compare != "" {
		old, err := load(compare)
		if err != nil {
			return err
		}
		return gate(old, report, maxRegress, ring, profileTop)
	}
	return nil
}

func load(path string) (*bench.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func gate(old, cand *bench.Report, maxRegress float64, ring *prof.Ring, top int) error {
	cmps := bench.Compare(old, cand)
	if len(cmps) == 0 {
		return fmt.Errorf("no benchmarks in either report")
	}
	fmt.Print(bench.FormatComparisons(cmps, maxRegress))
	if bad := bench.Regressions(cmps, maxRegress); len(bad) > 0 {
		attribute(os.Stdout, bad, old, cand, ring, top)
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%", len(bad), maxRegress)
	}
	// Benchmarks on only one side are reported above as new/removed;
	// they have nothing to regress from, so the gate passes on the
	// shared set (possibly empty, e.g. across a benchmark rename).
	if shared := bench.Shared(cmps); shared == 0 {
		fmt.Println("ok: no shared benchmarks to gate on (all entries new or removed)")
	} else {
		fmt.Printf("ok: no benchmark regressed more than %.0f%% (%d shared)\n", maxRegress, shared)
	}
	return nil
}

// attribute prints a per-function CPU delta table for every suite
// with a regressed benchmark, when both reports carry a cpu profile
// ref for the suite and the ring holds the bytes. Diagnostics go to
// stderr: attribution is advisory and must never turn a clear gate
// verdict into an error.
func attribute(w *os.File, bad []bench.Comparison, old, cand *bench.Report, ring *prof.Ring, top int) {
	suites := map[string]bool{}
	var order []string
	for _, c := range bad {
		if !suites[c.Suite] {
			suites[c.Suite] = true
			order = append(order, c.Suite)
		}
	}
	if ring == nil {
		fmt.Fprintln(os.Stderr, "bcebench: no -profile-dir; rerun both sides with -profile-dir to attribute regressions")
		return
	}
	for _, suite := range order {
		oldRef, candRef := old.FindProfile(suite, "cpu"), cand.FindProfile(suite, "cpu")
		if oldRef == nil || candRef == nil {
			fmt.Fprintf(os.Stderr, "bcebench: suite %q: missing profile ref (base: %v, cand: %v); run both sides with -profile-dir\n",
				suite, oldRef != nil, candRef != nil)
			continue
		}
		d, err := ring.Diff(oldRef.Digest, candRef.Digest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcebench: suite %q: %v\n", suite, err)
			continue
		}
		fmt.Fprintf(w, "\nattribution for suite %q:\n%s", suite, d.Table(top))
	}
}
