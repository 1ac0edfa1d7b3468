// Command bceworker is the worker half of a distributed sweep: it
// serves batches of timing simulations over HTTP for a coordinating
// bcetables -workers-remote invocation (see docs/distributed.md).
//
// Usage:
//
//	bceworker -addr 127.0.0.1:8371                  # serve
//	bceworker -addr 127.0.0.1:8371 -cache .cache/w1 # with a persistent result cache
//	bceworker -addr 127.0.0.1:8371 -debug-addr localhost:6061
//
// A worker is stateless between batches apart from its result cache:
// killing one mid-sweep loses only in-flight work, and the coordinator
// reassigns the unfinished batches to surviving workers. Re-delivered
// jobs whose results are already in the worker's cache are served, not
// re-simulated.
//
// The API port also answers /healthz (liveness), /readyz (flips to 503
// once shutdown begins, so fleet monitors stop routing to a draining
// worker), and /metrics (Prometheus text format).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bce/internal/cli"
	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/runner"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8371", "address to serve the worker API on (host:port; port 0 picks a free one, printed on stderr)")
		name     = flag.String("name", "", "worker name stamped on replies and manifests (default: the listen address)")
		workers  = flag.Int("workers", 0, "parallel simulations per batch (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", "", "directory for this worker's on-disk timing-result cache (empty = in-memory only)")
	)
	// Sweep-mode profiling: each batch's runner.Map becomes a capture
	// window. With an empty -profile-dir this still applies
	// -profile-mutex/-profile-block process-wide, which is what
	// populates /debug/pprof/mutex and /debug/pprof/block for remote
	// scrapers.
	cli.Main(cli.Spec{
		Name:      "bceworker",
		Labels:    map[string]string{"dist_schema": fmt.Sprint(dist.SchemaVersion)},
		Profiling: cli.Sweeps,
		Debug:     true,
		Vars: map[string]func() any{
			"bce_dist": func() any { return dist.Snapshot() },
			"bce_result_cache": func() any {
				hits, misses := core.ResultCacheStats()
				return map[string]uint64{"hits": hits, "misses": misses}
			},
		},
	}, func(env cli.Env) error {
		if *cacheDir != "" {
			if err := core.SetResultCacheDir(*cacheDir); err != nil {
				return err
			}
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		if *name == "" {
			*name = ln.Addr().String()
		}
		logger := env.Logger.With("worker", *name)
		w := dist.NewWorker(dist.WorkerOptions{
			Name:   *name,
			Pool:   runner.New(runner.Options{Workers: *workers}),
			Logger: logger,
		})
		srv := &http.Server{Handler: w.Handler()}
		start := time.Now()

		// The first SIGINT/SIGTERM drains in-flight batches and exits.
		go func() {
			<-env.Ctx.Done()
			// Fail /readyz first so fleet monitors and load balancers
			// stop routing here while in-flight batches drain.
			w.SetReady(false)
			logger.Info("shutdown requested; draining in-flight batches")
			srv.Shutdown(context.Background()) //nolint:errcheck // exiting anyway
		}()

		logger.Info("serving", "url", "http://"+ln.Addr().String(), "schema", dist.SchemaVersion)
		// The plain-print line below keeps the startup address greppable
		// in smoke scripts regardless of -log-format.
		fmt.Fprintf(os.Stderr, "bceworker: %q serving on http://%s (schema v%d)\n",
			*name, ln.Addr(), dist.SchemaVersion)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Final structured summary: what this worker did over its
		// lifetime.
		snap := dist.Snapshot()
		hits, misses := core.ResultCacheStats()
		logger.Info("worker shutdown complete",
			"batches_served", snap.BatchesServed,
			"jobs_received", snap.JobsReceived,
			"jobs_ok", snap.JobsOK,
			"jobs_failed", snap.JobsFailed,
			"cache_hits", hits,
			"cache_misses", misses,
			"uptime", time.Since(start).Round(time.Second).String())
		return nil
	})
}
