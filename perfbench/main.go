// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four workloads cold, repeatedly for a fixed time, checks every
// output against goldens recorded from the seed program, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced) with
// their units; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload sim-long --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 30 --trace 1
//	bash perfbench/run.sh record       # re-record the goldens
//
// Every repetition is a fresh process, so it starts with an empty
// result cache and zeroed counters and has its own peak RSS. The
// per-layer numbers come from calls the benchmark makes into the
// program's public functions and interfaces and from the program's own
// hooks; the program carries no benchmark instrumentation. See
// BENCHMARK.json for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bce/internal/workload"
)

var workloads = []string{"paper-quick", "sim-long", "functional-long", "fleet-quick"}

// opsPerRep is each workload's operation count per repetition: one
// experiment call (paper-quick, fleet-quick) or one simulation.
var opsPerRep = map[string]int{
	"paper-quick": len(paperExperiments), "sim-long": len(workload.Names()),
	"functional-long": len(workload.Names()) * len(functionalEstimators), "fleet-quick": len(fidelityExperiments),
}

// setupProbes is the number of set-up-only processes each run starts in
// addition to its repetitions, so set-up time is a median of several.
const setupProbes = 25

// runLimit bounds a whole run, children included.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "worker":
			fs := flag.NewFlagSet("worker", flag.ExitOnError)
			name := fs.String("name", "worker", "worker name")
			fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError
			if err := serveWorker(*name); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench worker:", err)
				os.Exit(1)
			}
			return
		case "record":
			if err := record(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench record:", err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	var a childArgs
	fs.StringVar(&a.workload, "workload", "", "workload")
	fs.Int64Var(&a.seed, "seed", 0, "seed")
	fs.BoolVar(&a.traced, "traced", false, "decorate and trace this repetition")
	fs.BoolVar(&a.profile, "profile", false, "profile this repetition into the ledger")
	fs.BoolVar(&a.setupOnly, "setup-only", false, "stop at the first unit of work")
	fs.BoolVar(&a.record, "record", false, "report outputs instead of checking them")
	fs.StringVar(&a.goldens, "goldens", "", "goldens directory")
	fs.StringVar(&a.outDir, "out", "", "output directory")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	res, err := runChild(a)
	if err == nil {
		err = printResult(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// paths are the checkout-relative locations the benchmark uses; the
// driver runs it from the checkout root.
type paths struct{ goldens, out string }

func defaultPaths() paths {
	return paths{
		goldens: filepath.Join("perfbench", "goldens"),
		out:     filepath.Join(".bench_build", "perfbench", "out"),
	}
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Int64("seed", 0, "workload seed (sim-long: selects the runtime-randomness segment)")
	seconds := fs.Int("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p := defaultPaths()
	if _, err := os.Stat(filepath.Join(p.goldens, "counts.json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if _, ok := opsPerRep[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var sums []*summary
	for _, w := range names {
		s := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, p)
		s.print(os.Stdout)
		sums = append(sums, s)
	}
	if len(sums) == 1 {
		fmt.Println(sums[0].jsonLine(""))
		return 0
	}
	fmt.Println(combined(sums))
	return 0
}

// rep is one finished child process as the parent saw it.
type rep struct {
	traced bool
	res    *repResult
	cpu    time.Duration
	setup  time.Duration
	dur    time.Duration // launch to exit
	err    error
}

// spawn runs one child and collects its result and resource use.
func spawn(ctx context.Context, p paths, workload string, seed int64, traced, setupOnly bool, extra ...string) rep {
	self, err := os.Executable()
	if err != nil {
		return rep{err: err}
	}
	args := []string{"child", "-workload", workload, "-seed", fmt.Sprint(seed),
		"-traced=" + fmt.Sprint(traced), "-setup-only=" + fmt.Sprint(setupOnly),
		"-goldens", p.goldens, "-out", p.out}
	cmd := exec.CommandContext(ctx, self, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	var out strings.Builder
	cmd.Stdout = &out
	start := time.Now()
	launch := start.UnixNano()
	err = cmd.Run()
	r := rep{traced: traced, dur: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		// Includes the workers the child waited for (wait4 reports a
		// process's own and its reaped children's usage).
		r.cpu = ps.UserTime() + ps.SystemTime()
	}
	if err != nil {
		r.err = fmt.Errorf("child %s: %w", workload, err)
		return r
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		r.err = fmt.Errorf("child %s: bad result: %w", workload, err)
		return r
	}
	r.res = &res
	r.setup = time.Duration(res.WorkStartNs - launch)
	return r
}

// runWorkload makes one run: set-up probes, then repetitions until the
// next one would end past the measuring time. A traced run alternates
// profiled and traced repetitions: the ledger and every layer metric
// the decorators would inflate come from the profiled ones, and the
// tracing overhead compares neighbours.
func runWorkload(w string, seed int64, seconds time.Duration, traced bool, p paths) *summary {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	s := &summary{workload: w, seed: seed, traced: traced}
	for i := 0; i < setupProbes; i++ {
		r := spawn(ctx, p, w, seed, false, true)
		if r.err != nil {
			s.problems = append(s.problems, r.err.Error())
			continue
		}
		s.setups = append(s.setups, r.setup.Seconds())
	}
	start := time.Now()
	var durs []float64
	for i := 0; ; i++ {
		var profile []string
		if traced && i%2 == 0 {
			profile = []string{"-profile"}
		}
		r := spawn(ctx, p, w, seed, traced && i%2 == 1, false, profile...)
		s.add(r)
		durs = append(durs, r.dur.Seconds())
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.problems = append(s.problems, "run limit reached")
			break
		}
		enough := !traced || i >= 1
		next := time.Duration(median(durs) * float64(time.Second))
		if enough && time.Since(start)+next > seconds {
			break
		}
	}
	return s
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
