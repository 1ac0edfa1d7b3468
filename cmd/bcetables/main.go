// Command bcetables regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	bcetables -exp table2          # one experiment
//	bcetables -exp all             # everything (minutes)
//	bcetables -exp fig4 -bench gcc # density figures accept -bench
//	bcetables -quick               # reduced run lengths (smoke)
//	bcetables -exp fig5 -csv       # density data as CSV
//	bcetables -exp fidelity -manifest run.json  # scorecard feedstock
//
// Experiments, in the order a group runs them: table2 table3 table4
// table5 table6 fig4/5 (also fig4, fig5) fig6/7 (also fig6, fig7) fig8
// fig9 latency, then the extension studies ablate-signal
// ablate-reversal ablate-site ablate-threshold ablate-history
// ablate-jrs variability. Groups: all (table2 through latency),
// fidelity (table2 table3 table4 fig8, the scorecard core the CI
// fidelity gate sweeps) and extras (the extension studies).
//
// With -manifest the invocation also writes a run manifest: config
// fingerprint, git revision, per-simulation results and runner/cache
// statistics, the input cmd/bcereport consumes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"bce/internal/cli"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/manifest"
	"bce/internal/metrics"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

// fleetMon holds the coordinator-side fleet monitor once a distributed
// sweep starts. The debug server's var map is registered before the
// coordinator exists, so the vars sample through this holder.
var fleetMon atomic.Pointer[dist.Fleet]

// coordMon likewise exposes the live coordinator's shard-latency
// statistics.
var coordMon atomic.Pointer[dist.Coordinator]

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to regenerate: "+strings.Join(selectors(), ", "))
		bench      = flag.String("bench", "gcc", "benchmark for the density figures (fig4-fig7)")
		quick      = flag.Bool("quick", false, "use reduced run lengths")
		segments   = flag.Int("segments", 1, "independent trace segments per benchmark (the paper uses 2)")
		csv        = flag.Bool("csv", false, "emit density data as CSV (fig4-fig7 only)")
		workers    = flag.Int("workers", 0, "parallel simulations per sweep (0 = GOMAXPROCS); results are identical under any setting")
		progress   = flag.Bool("progress", false, "report per-sweep progress and ETA on stderr")
		cacheDir   = flag.String("cache", "", "directory for the on-disk timing-result cache (empty = in-memory only)")
		resume     = flag.Bool("resume", false, "replay the checkpoint journal from a killed run (needs -cache); completed simulations are not re-run and merged output is identical to an uninterrupted run")
		jobTimeout = flag.Duration("job-timeout", 0, "per-simulation deadline (0 = none); timed-out jobs are retried per -retries")
		retries    = flag.Int("retries", 0, "retries per job for transient failures, with exponential backoff")
		manifestTo = flag.String("manifest", "", "write a run manifest (provenance + per-job results) to this file")
		remote     = flag.String("workers-remote", "", "comma-separated bceworker base URLs (e.g. http://127.0.0.1:8371); queue the sweep's timing simulations for them to pull, then aggregate locally — output is byte-identical to a single-process run")
		distBatch  = flag.Int("dist-batch", 0, "jobs per batch request to remote workers (0 = default)")
		traceSpans = flag.String("trace-spans", "", "write the distributed sweep's merged cross-process span timeline (Chrome trace_event JSON, needs -workers-remote) to this file")
	)
	cli.Main(cli.Spec{
		Name: "bcetables",
		Labels: map[string]string{
			"dist_schema":     fmt.Sprint(dist.SchemaVersion),
			"manifest_schema": fmt.Sprint(manifest.SchemaVersion),
		},
		Profiling: cli.Sweeps,
		Debug:     true,
		Vars: map[string]func() any{
			"bce_result_cache": func() any {
				hits, misses := core.ResultCacheStats()
				return map[string]uint64{"hits": hits, "misses": misses}
			},
			"bce_dist": func() any { return dist.Snapshot() },
			"bce_fleet": func() any {
				if f := fleetMon.Load(); f != nil {
					return f.Snapshot()
				}
				return nil
			},
			"bce_dist_coordinator": func() any {
				if c := coordMon.Load(); c != nil {
					return c.Stats()
				}
				return nil
			},
			"bce_bench": func() any {
				if c := coordMon.Load(); c != nil {
					return c.BenchRecords()
				}
				return nil
			},
		},
	}, func(env cli.Env) error {
		if *traceSpans != "" && *remote == "" {
			return cli.Usagef("-trace-spans needs -workers-remote (spans trace the distributed sweep)")
		}
		if *resume && *cacheDir == "" {
			return cli.Usagef("-resume needs -cache (the journal lives next to the result store)")
		}
		urls := splitList(*remote)
		if *remote != "" && len(urls) == 0 {
			return cli.Usagef("-workers-remote lists no worker URLs")
		}

		core.SetParallelism(*workers)
		core.SetJobTimeout(*jobTimeout)
		core.SetRetries(*retries, 100*time.Millisecond)
		if *progress {
			core.SetProgress(func(p runner.Progress) {
				fmt.Fprintf(os.Stderr, "bcetables: %d/%d jobs, elapsed %s, eta %s\n",
					p.Done, p.Total, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
			})
		}
		if *cacheDir != "" {
			if err := core.SetResultCacheDir(*cacheDir); err != nil {
				return err
			}
			replayed, err := core.SetCheckpoint(*resume)
			if err != nil {
				return err
			}
			if *resume {
				env.Logger.Info("resumed from checkpoint",
					"path", core.CheckpointPath(), "simulations", replayed)
			}
		}
		// The first SIGINT/SIGTERM cancels the sweep: in-flight jobs
		// finish and checkpoint.
		core.SetBaseContext(env.Ctx)

		sz := core.DefaultSizes()
		if *quick {
			sz = core.QuickSizes()
		}
		sz.Segments = *segments

		var mb *manifest.Builder
		if *manifestTo != "" {
			mb = manifest.NewBuilder("bcetables", os.Args[1:])
			mb.SetSizes(manifest.Sizes{
				Warmup: sz.Warmup, Measure: sz.Measure,
				FuncWarmup: sz.FuncWarmup, FuncMeasure: sz.FuncMeasure,
				Segments: *segments,
			})
			mb.SetSeeds(workload.Seeds())
			mb.SetConfig("exp", *exp)
			mb.SetConfig("bench", *bench)
			core.SetJobObserver(func(rec core.JobRecord) {
				mb.AddJob(manifest.Job{
					Key: rec.Key, Kind: rec.Kind, Bench: rec.Bench, Cached: rec.Cached,
					Run: rec.Run, Confusion: rec.Confusion,
				})
			})
		}

		// Distributed execution: enumerate the sweep's job space, queue
		// it for the remote workers, and merge every result into the
		// local cache/store. The aggregation pass below then runs fully
		// cache-hit, so its stdout is byte-identical to a single-process
		// sweep by construction.
		var err error
		if len(urls) > 0 {
			err = distribute(env.Ctx, urls, *exp, *bench, *csv, sz, mb, *distBatch, *jobTimeout, *retries, *traceSpans, env.Prof)
		}
		if err == nil {
			err = run(*exp, *bench, *csv, sz, mb, os.Stdout)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted()
			}
			core.CloseCheckpoint(false) //nolint:errcheck // the run error is the one to report
			return err
		}
		if err := core.CloseCheckpoint(true); err != nil {
			fmt.Fprintln(os.Stderr, "bcetables: checkpoint:", err)
		}
		if mb != nil {
			mb.AddProfiles(env.Prof.Records()...)
			hits, misses := core.ResultCacheStats()
			if err := mb.WriteFile(*manifestTo, hits, misses); err != nil {
				return err
			}
			env.Logger.Info("run manifest written", "path", *manifestTo)
		}
		if *progress {
			hits, misses := core.ResultCacheStats()
			env.Logger.Info("result cache summary", "hits", hits, "misses", misses, "avoided", hits)
		}
		return nil
	})
}

// interrupted prints the partial-results summary after a graceful
// shutdown: what completed, and how to pick the sweep back up.
func interrupted() {
	ls := runner.LiveSnapshot()
	slog.Warn("interrupted before completion",
		"finished", ls.JobsDone, "cached", ls.JobsCached, "retried", ls.JobsRetried)
	if path := core.CheckpointPath(); path != "" {
		slog.Info("completed work is checkpointed; rerun with -resume to continue", "path", path)
	}
}

// splitList parses a comma-separated flag value, trimming whitespace
// and dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// distribute runs the remote leg of a distributed sweep: plan the job
// space with a silent recording pass, ping the workers, queue and
// dispatch, and inject every remote result into the local cache (and
// any attached store/journal) under its cache key. Jobs whose results
// are already stored — a resumed coordinator — are excluded from the
// plan, so only missing work is dispatched.
func distribute(ctx context.Context, urls []string, exp, bench string, csv bool,
	sz core.Sizes, mb *manifest.Builder, batch int, jobTimeout time.Duration, retries int,
	traceSpans string, capturer *prof.Capturer) error {
	log := slog.Default().With("component", "coordinator")
	var tracer *telemetry.Tracer
	if traceSpans != "" {
		tracer = telemetry.NewTracer("coordinator")
	}
	coord, err := dist.NewCoordinator(dist.Options{
		Workers:    urls,
		BatchSize:  batch,
		JobTimeout: jobTimeout,
		Retries:    retries,
		Logger:     log,
		Tracer:     tracer,
		OnResult: func(worker string, job dist.Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
			if mb != nil {
				r := run
				mb.AddJob(manifest.Job{
					Key: job.Key, Kind: "timing", Bench: job.Spec.Bench,
					Worker: worker, Run: &r,
				})
			}
		},
	})
	if err != nil {
		return err
	}
	coordMon.Store(coord)
	defer coordMon.Store(nil)
	if err := coord.Ping(ctx); err != nil {
		return err
	}

	// The fleet monitor is observational: it polls worker /metrics and
	// /readyz for the debug endpoint's bce_fleet var and stops when the
	// sweep ends. Its failures never affect job routing.
	fleetCtx, stopFleet := context.WithCancel(ctx)
	fleet := dist.NewFleet(dist.FleetOptions{Workers: urls, Logger: log})
	fleet.SetBenchSource(coord.BenchRecords)
	fleet.Start(fleetCtx)
	fleetMon.Store(fleet)
	defer func() {
		fleetMon.Store(nil)
		stopFleet()
		fleet.Wait()
	}()

	plan, err := core.CollectJobs(func() error {
		return run(exp, bench, csv, sz, nil, io.Discard)
	})
	if err != nil {
		return err
	}
	log.Info("plan ready",
		"jobs", len(plan.Jobs), "workers", len(urls), "stored", plan.Stored)
	if len(plan.Jobs) == 0 {
		return nil
	}
	// Mid-sweep fleet profiling: while batches are in flight, scrape
	// every worker's /debug/pprof/profile and merge the results into
	// one per-worker-labeled bundle in the profile ring. Best-effort
	// by design — a sweep shorter than the scrape window, or a worker
	// that refuses, degrades observability, never the sweep.
	const fleetProfileSeconds = 1
	scrapeDone := make(chan struct{})
	if capturer != nil {
		scrapeCtx, cancelScrape := context.WithTimeout(ctx, 15*time.Second)
		go func() {
			defer close(scrapeDone)
			defer cancelScrape()
			merged, notes, err := dist.FleetProfile(scrapeCtx, nil, urls, fleetProfileSeconds)
			for _, n := range notes {
				log.Warn("fleet profile scrape", "note", n)
			}
			if err != nil {
				log.Warn("fleet profile unavailable", "err", err)
				return
			}
			data, err := merged.Encode()
			if err != nil {
				log.Warn("fleet profile encode failed", "err", err)
				return
			}
			rec, err := capturer.Store("fleet", "cpu", "", fleetProfileSeconds, data)
			if err != nil {
				log.Warn("fleet profile store failed", "err", err)
				return
			}
			log.Info("fleet profile captured",
				"workers", len(urls), "digest", rec.Digest, "bytes", rec.Bytes)
		}()
	} else {
		close(scrapeDone)
	}
	start := time.Now()
	runErr := coord.Run(ctx, plan.Jobs, plan.Keys)
	<-scrapeDone
	if tracer != nil {
		// Write whatever spans were collected even on failure — a partial
		// timeline is exactly what debugs a failed sweep.
		if werr := writeSpanFile(traceSpans, tracer); werr != nil {
			log.Warn("span trace not written", "path", traceSpans, "err", werr)
		} else {
			started, ended := tracer.Counts()
			log.Info("span trace written", "path", traceSpans, "spans", ended, "started", started)
		}
	}
	if runErr != nil {
		return runErr
	}
	log.Info("remote simulations merged",
		"jobs", len(plan.Jobs), "elapsed", time.Since(start).Round(100*time.Millisecond).String())
	return nil
}

// writeSpanFile drains the tracer and writes the merged cross-process
// Chrome trace (coordinator + worker spans in one timeline).
func writeSpanFile(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanTrace(f, tracer.Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// experiment is one entry of the -exp table. A group selects its
// members in table order.
type experiment struct {
	name    string
	aliases []string
	groups  []string
	// record names the manifest result the output is stored under;
	// empty leaves it out of the manifest.
	record string
	run    func(sz core.Sizes, bench string) (fmt.Stringer, error)
}

var (
	inAll      = []string{"all"}
	inFidelity = []string{"all", "fidelity"}
	inExtras   = []string{"extras"}
)

var experiments = []experiment{
	{name: "table2", groups: inFidelity, record: "table2", run: sized(core.Table2)},
	{name: "table3", groups: inFidelity, record: "table3", run: sized(core.Table3)},
	{name: "table4", groups: inFidelity, record: "table4", run: sized(core.Table4)},
	{name: "table5", groups: inAll, record: "table5", run: sized(core.Table5)},
	{name: "table6", groups: inAll, record: "table6", run: sized(core.Table6)},
	{name: "fig4/5", aliases: []string{"fig4", "fig5"}, groups: inAll, record: "density-cic", run: density("cic", "Figures 4-5")},
	{name: "fig6/7", aliases: []string{"fig6", "fig7"}, groups: inAll, record: "density-tnt", run: density("tnt", "Figures 6-7")},
	{name: "fig8", groups: inFidelity, record: "fig8", run: sized(func(sz core.Sizes) (*core.CombinedResult, error) {
		return core.Combined(config.Baseline40x4(), sz)
	})},
	{name: "fig9", groups: inAll, record: "fig9", run: sized(func(sz core.Sizes) (*core.CombinedResult, error) {
		return core.Combined(config.Wide20x8(), sz)
	})},
	{name: "latency", groups: inAll, record: "latency", run: sized(core.Latency)},
	{name: "ablate-signal", groups: inExtras, run: sized(core.AblateTrainingSignal)},
	{name: "ablate-reversal", groups: inExtras, run: sized(core.AblateReversalSource)},
	{name: "ablate-site", groups: inExtras, run: sized(core.AblateTrainingSite)},
	{name: "ablate-threshold", groups: inExtras, run: sized(core.AblateTrainThreshold)},
	{name: "ablate-history", groups: inExtras, run: sized(core.AblateHistoryLength)},
	{name: "ablate-jrs", groups: inExtras, run: sized(core.AblateJRSIndexing)},
	{name: "variability", groups: inExtras, run: sized(func(sz core.Sizes) (*core.VariabilityReport, error) {
		return core.Variability(0, 1, sz)
	})},
}

// sized adapts an experiment that ignores -bench.
func sized[T fmt.Stringer](f func(core.Sizes) (T, error)) func(core.Sizes, string) (fmt.Stringer, error) {
	return func(sz core.Sizes, _ string) (fmt.Stringer, error) {
		v, err := f(sz)
		return v, err
	}
}

// density runs one estimator-output density figure on -bench.
func density(scheme, figs string) func(core.Sizes, string) (fmt.Stringer, error) {
	return func(sz core.Sizes, bench string) (fmt.Stringer, error) {
		d, err := core.Density(bench, scheme, sz)
		if err != nil {
			return nil, err
		}
		heading := fmt.Sprintf("== %s (%s estimator output density, benchmark %s)\n", figs, scheme, bench)
		return densityFigure{heading, d}, nil
	}
}

// densityFigure prints a density result under its heading, as text or
// (-csv) as CSV; the manifest records the bare result.
type densityFigure struct {
	heading string
	d       *core.DensityResult
}

func (f densityFigure) String() string               { return f.heading + f.d.String() }
func (f densityFigure) CSV() string                  { return f.heading + f.d.CSV() }
func (f densityFigure) MarshalJSON() ([]byte, error) { return json.Marshal(f.d) }

// selectors lists every -exp value: experiment names and aliases in
// table order, then the groups.
func selectors() []string {
	var names, groups []string
	for _, e := range experiments {
		names = append(names, e.name)
		names = append(names, e.aliases...)
		for _, g := range e.groups {
			if !slices.Contains(groups, g) {
				groups = append(groups, g)
			}
		}
	}
	return append(names, groups...)
}

// selected returns the experiments exp names, in table order.
func selected(exp string) []experiment {
	var sel []experiment
	for _, e := range experiments {
		if e.name == exp || slices.Contains(e.aliases, exp) || slices.Contains(e.groups, exp) {
			sel = append(sel, e)
		}
	}
	return sel
}

// run regenerates the experiments exp selects, printing each result to
// out and recording it in mb (if not nil).
func run(exp, bench string, csv bool, sz core.Sizes, mb *manifest.Builder, out io.Writer) error {
	// A planning pass (distribute) runs this function against
	// io.Discard purely to enumerate jobs; keep its stderr decoration
	// quiet too.
	errOut := io.Writer(os.Stderr)
	if out == io.Discard {
		errOut = io.Discard
	}
	sel := selected(exp)
	if len(sel) == 0 {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, strings.Join(selectors(), ", "))
	}
	for _, e := range sel {
		start := time.Now()
		v, err := e.run(sz, bench)
		if err == nil && mb != nil && e.record != "" {
			err = mb.AddResult(e.record, v)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		text := v.String()
		if c, ok := v.(interface{ CSV() string }); ok && csv {
			text = c.CSV()
		}
		fmt.Fprint(out, text)
		// Wall-clock decoration goes to stderr so stdout carries only
		// the deterministic results — a resumed run's stdout is
		// byte-identical to an uninterrupted one.
		fmt.Fprintf(errOut, "[%s regenerated in %.1fs]\n", e.name, time.Since(start).Seconds())
		fmt.Fprintln(out)
	}
	return nil
}
