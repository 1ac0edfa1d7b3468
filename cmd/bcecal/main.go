// Command bcecal reports the synthetic-workload calibration against
// the paper's Table 2 targets: per-benchmark misprediction rates under
// the baseline hybrid predictor, with per-behavior-class attribution —
// the tooling used to tune internal/workload/profiles.go.
//
// Usage:
//
//	bcecal                  # rates vs targets for all benchmarks
//	bcecal -bench mcf       # per-class attribution for one benchmark
//	bcecal -uops 1000000    # longer measurement
//	bcecal -manifest cal.json  # also write a run manifest
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"bce/internal/cli"
	"bce/internal/manifest"
	"bce/internal/predictor"
	"bce/internal/runner"
	"bce/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "show per-class attribution for one benchmark")
		uops       = flag.Int("uops", 400_000, "measured uops (after 100k warmup)")
		workers    = flag.Int("workers", 0, "parallel calibration runs (0 = GOMAXPROCS); results are identical under any setting")
		cacheDir   = flag.String("cache", "", "directory for the on-disk calibration cache (empty = no persistence)")
		resume     = flag.Bool("resume", false, "replay the checkpoint journal from a killed run (needs -cache)")
		manifestTo = flag.String("manifest", "", "write a run manifest (provenance + per-benchmark rates) to this file")
	)
	cli.Main(cli.Spec{
		Name:      "bcecal",
		Labels:    map[string]string{"manifest_schema": fmt.Sprint(manifest.SchemaVersion)},
		Profiling: cli.Sweeps,
		Debug:     true,
	}, func(env cli.Env) error {
		if *resume && *cacheDir == "" {
			return cli.Usagef("-resume needs -cache (the journal lives next to the result store)")
		}
		var mb *manifest.Builder
		if *manifestTo != "" {
			mb = manifest.NewBuilder("bcecal", os.Args[1:])
			mb.SetConfig("bench", *bench)
			mb.SetConfig("uops", fmt.Sprint(*uops))
			mb.SetSeeds(workload.Seeds())
		}
		if err := run(env.Ctx, *bench, *uops, *workers, *cacheDir, *resume, mb); err != nil {
			if errors.Is(err, context.Canceled) {
				ls := runner.LiveSnapshot()
				fmt.Fprintf(os.Stderr, "bcecal: interrupted: %d calibration runs finished before shutdown", ls.JobsDone)
				if *cacheDir != "" {
					fmt.Fprintf(os.Stderr, "; rerun with -resume to continue")
				}
				fmt.Fprintln(os.Stderr)
			}
			return err
		}
		if mb != nil {
			mb.AddProfiles(env.Prof.Records()...)
			if err := mb.WriteFile(*manifestTo, 0, 0); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bcecal: run manifest written to %s\n", *manifestTo)
		}
		return nil
	})
}

func run(ctx context.Context, bench string, uops, workers int, cacheDir string, resume bool, mb *manifest.Builder) error {
	if bench != "" {
		return attribute(bench, uops)
	}
	cache := runner.NewCache[float64]()
	// -cache stacks the sweep checkpoint journal in front of the
	// DirStore, so a killed run resumes with -resume.
	var journal *runner.Journal
	if cacheDir != "" {
		ds, err := runner.NewDirStore(cacheDir)
		if err != nil {
			return err
		}
		if journal, err = ds.OpenCheckpoint(resume); err != nil {
			return err
		}
		if resume {
			fmt.Fprintf(os.Stderr, "bcecal: resumed from %s (%d checkpointed runs)\n", journal.Path(), journal.Replayed())
		}
		cache.SetStore(runner.Tiered(journal, ds),
			func(v float64) ([]byte, error) { return json.Marshal(v) },
			func(b []byte) (float64, error) { var v float64; err := json.Unmarshal(b, &v); return v, err })
	}
	// The fan-out: one deterministic calibration run per benchmark,
	// results assembled in workload.Names() order so output is
	// identical under any worker count and across resumes.
	pool := runner.New(runner.Options{Workers: workers})
	rates, err := runner.Map(ctx, pool, workload.Names(),
		func(ctx context.Context, _ int, name string) (float64, error) {
			return cache.Do(runner.KeyOf("bcecal", 1, name, uops), func() (float64, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				return mispRate(name, uops)
			})
		})
	if journal != nil {
		journal.Finish(err == nil) //nolint:errcheck // the journal only speeds up a resume
	}
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %10s %10s %8s\n", "bench", "misp/Kuop", "target", "ratio")
	var worst float64 = 1
	type calRow struct {
		Bench             string
		MispPer1K, Target float64
	}
	var calRows []calRow
	for i, name := range workload.Names() {
		rate := rates[i]
		target := workload.Table2Target[name]
		ratio := rate / target
		if ratio > worst {
			worst = ratio
		}
		if 1/ratio > worst {
			worst = 1 / ratio
		}
		fmt.Printf("%-9s %10.2f %10.2f %7.2fx\n", name, rate, target, ratio)
		calRows = append(calRows, calRow{Bench: name, MispPer1K: rate, Target: target})
		if mb != nil {
			mb.AddJob(manifest.Job{
				Key: runner.KeyOf("bcecal", 1, name, uops), Kind: "calibration", Bench: name,
				Extra: map[string]float64{"misp_per_kuop": rate, "target": target},
			})
		}
	}
	fmt.Printf("\nworst deviation: %.2fx (calibration keeps every benchmark within 2x)\n", worst)
	if mb != nil {
		if err := mb.AddResult("calibration", map[string]any{
			"Rows": calRows, "WorstRatio": worst,
		}); err != nil {
			return err
		}
	}
	return nil
}

func mispRate(name string, uops int) (float64, error) {
	wl, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	g := workload.New(wl)
	pred := predictor.NewBaselineHybrid()
	const warm = 100_000
	var measured, misp int
	for i := 0; i < warm+uops; i++ {
		u, _ := g.Next()
		if i >= warm {
			measured++
		}
		if !u.Kind.IsConditional() {
			continue
		}
		pt := pred.Predict(u.PC)
		pred.Update(u.PC, u.Taken)
		if i >= warm && pt != u.Taken {
			misp++
		}
	}
	return 1000 * float64(misp) / float64(measured), nil
}

func attribute(name string, uops int) error {
	wl, err := workload.ByName(name)
	if err != nil {
		return err
	}
	g := workload.New(wl)
	kinds := g.BranchKinds()
	pred := predictor.NewBaselineHybrid()
	type agg struct{ n, miss int }
	byClass := map[string]*agg{}
	const warm = 100_000
	for i := 0; i < warm+uops; i++ {
		u, _ := g.Next()
		if !u.Kind.IsConditional() {
			continue
		}
		pt := pred.Predict(u.PC)
		pred.Update(u.PC, u.Taken)
		if i < warm {
			continue
		}
		k := kinds[u.PC]
		if j := strings.IndexByte(k, '('); j > 0 {
			k = k[:j]
		}
		a := byClass[k]
		if a == nil {
			a = &agg{}
			byClass[k] = a
		}
		a.n++
		if pt != u.Taken {
			a.miss++
		}
	}
	var ks []string
	for k := range byClass {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	fmt.Printf("benchmark %s: misprediction attribution by behavior class\n", name)
	fmt.Printf("%-10s %10s %10s %10s %12s\n", "class", "dynamic", "share", "missrate", "contribution")
	total, totalMiss := 0, 0
	for _, a := range byClass {
		total += a.n
		totalMiss += a.miss
	}
	for _, k := range ks {
		a := byClass[k]
		fmt.Printf("%-10s %10d %9.1f%% %9.1f%% %11.1f%%\n",
			k, a.n,
			100*float64(a.n)/float64(total),
			100*float64(a.miss)/float64(a.n),
			100*float64(a.miss)/float64(totalMiss))
	}
	fmt.Printf("%-10s %10d %9s %9.1f%%\n", "TOTAL", total, "",
		100*float64(totalMiss)/float64(total))
	return nil
}
