package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/metrics"
	"bce/internal/runner"
)

// fleet.go runs fleet-quick's two worker processes and the counting
// transport the coordinator talks to them through.

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// serveWorker is the worker process: one dist.Worker with a single
// execution slot on a loopback port. It prints its base URL and serves
// until its standard input closes, so it cannot outlive the process
// that started it.
func serveWorker(name string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w := dist.NewWorker(dist.WorkerOptions{
		Name:   name,
		Pool:   runner.New(runner.Options{Workers: 1}),
		Logger: quietLog,
	})
	srv := &http.Server{Handler: w.Handler()}
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of stdin means stop
		srv.Close()
	}()
	fmt.Printf("http://%s\n", ln.Addr())
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// workerProc is a started worker process.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	url   string
}

// startWorkers launches n worker processes of this executable and waits
// for each to report its address.
func startWorkers(n int) ([]*workerProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ws []*workerProc
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "worker", "-name", fmt.Sprintf("w%d", i))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			stopWorkers(ws)
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stopWorkers(ws)
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			stopWorkers(ws)
			return nil, err
		}
		w := &workerProc{cmd: cmd, stdin: stdin}
		ws = append(ws, w)
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			stopWorkers(ws)
			return nil, fmt.Errorf("worker %d did not report its address: %w", i, err)
		}
		w.url = strings.TrimSpace(line)
	}
	return ws, nil
}

// stopWorkers closes every worker's stdin, waits for it to exit and
// returns each one's peak RSS in KiB. Waiting also adds the workers' CPU
// time to this process's children, which the parent reads.
func stopWorkers(ws []*workerProc) []int64 {
	var rss []int64
	for _, w := range ws {
		w.stdin.Close()
	}
	for _, w := range ws {
		w.cmd.Wait() //nolint:errcheck // the exit status of a stopped worker carries nothing; its rusage is read below
		if ru, ok := w.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, ru.Maxrss)
		}
	}
	return rss
}

func workerURLs(ws []*workerProc) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.url
	}
	return urls
}

// wire counts the bytes and batch latencies of the coordinator's HTTP
// traffic. It is the coordinator's Options.Client transport.
type wire struct {
	base http.RoundTripper

	mu        sync.Mutex
	reqBytes  int64
	respBytes int64
	batchMs   []float64
}

func (t *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if req.ContentLength > 0 {
		t.reqBytes += req.ContentLength
	}
	t.mu.Unlock()
	resp.Body = &countedBody{rc: resp.Body, t: t, start: start, batch: req.URL.Path == dist.PathExec}
	return resp, nil
}

// countedBody counts a response body and, for batch requests, records
// the latency from sending the request to the end of its reply.
type countedBody struct {
	rc    io.ReadCloser
	t     *wire
	start time.Time
	batch bool
	once  sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.t.mu.Lock()
	b.t.respBytes += int64(n)
	b.t.mu.Unlock()
	return n, err
}

func (b *countedBody) Close() error {
	b.once.Do(func() {
		if b.batch {
			ms := float64(time.Since(b.start)) / float64(time.Millisecond)
			b.t.mu.Lock()
			b.t.batchMs = append(b.t.batchMs, ms)
			b.t.mu.Unlock()
		}
	})
	return b.rc.Close()
}

// fleetRun is fleet-quick after set-up: plan, dispatch, aggregate.
type fleetRun struct {
	workers []*workerProc
	coord   *dist.Coordinator
	wire    *wire
	pingDur time.Duration
}

// setupFleet starts the workers and the coordinator and pings the
// fleet: everything fleet-quick does before its first unit of work.
func setupFleet(rec *recorder) (*fleetRun, error) {
	ws, err := startWorkers(poolSize)
	if err != nil {
		return nil, err
	}
	f := &fleetRun{workers: ws, wire: &wire{base: http.DefaultTransport.(*http.Transport).Clone()}}
	f.coord, err = dist.NewCoordinator(dist.Options{
		Workers:        workerURLs(ws),
		Client:         &http.Client{Transport: f.wire},
		DisableHedging: true,
		Logger:         quietLog,
		Tracer:         rec.tracer,
		OnResult: func(_ string, job dist.Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
			rec.mu.Lock()
			rec.cycles += run.Cycles
			rec.retired += run.Retired
			rec.freshSegments += run.Segments
			rec.mu.Unlock()
		},
	})
	if err != nil {
		stopWorkers(ws)
		return nil, err
	}
	start := time.Now()
	if err := f.coord.Ping(context.Background()); err != nil {
		stopWorkers(ws)
		return nil, err
	}
	f.pingDur = time.Since(start)
	return f, nil
}

// fleetTimes are the phases of one fleet-quick repetition.
type fleetTimes struct {
	plan, run, aggregate time.Duration
	planJobs             int
}

// runFleet plans the fidelity set with core.CollectJobs, runs the plan
// on the fleet, and aggregates locally from the merged results. A
// planning or dispatch failure fails every experiment.
func (f *fleetRun) runFleet(rec *recorder) ([]opResult, fleetTimes) {
	var ft fleetTimes
	fail := func(err error) []opResult {
		out := make([]opResult, len(fidelityExperiments))
		for i, e := range fidelityExperiments {
			out[i] = opResult{name: e.metric, err: err}
		}
		return out
	}
	span := rec.span("plan", nil)
	start := time.Now()
	plan, err := core.CollectJobs(func() error {
		for _, e := range fidelityExperiments {
			if _, err := e.run(core.QuickSizes()); err != nil {
				return err
			}
		}
		return nil
	})
	ft.plan = time.Since(start)
	span.End()
	if err != nil {
		return fail(err), ft
	}
	ft.planJobs = len(plan.Jobs)

	span = rec.span("dispatch", nil)
	start = time.Now()
	err = f.coord.Run(context.Background(), plan.Jobs, plan.Keys)
	ft.run = time.Since(start)
	span.End()
	if err != nil {
		return fail(err), ft
	}

	span = rec.span("aggregate", nil)
	start = time.Now()
	res := runExperiments(rec, fidelityExperiments)
	ft.aggregate = time.Since(start)
	span.End()
	return res, ft
}

// percentiles returns the median batch latency and the highest
// percentile with at least ten samples above it, with that percentile.
func (t *wire) percentiles() (p50, tail, tailPct float64) {
	t.mu.Lock()
	ms := append([]float64(nil), t.batchMs...)
	t.mu.Unlock()
	n := len(ms)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(ms)
	p50 = median(ms)
	k := n - 11 // ten samples lie above index k
	if k < 0 {
		k = 0
	}
	return p50, ms[k], 100 * float64(k+1) / float64(n)
}
