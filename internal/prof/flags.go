package prof

import (
	"context"
	"flag"
	"log/slog"
	"runtime"

	"bce/internal/runner"
)

// flags.go is the profiling wiring internal/cli gives the binaries:
// RegisterFlags defines the shared -profile-* flag set, and Enable
// turns the parsed values into a running Capturer in one of two modes:
//
//   - sweep mode (Sweeps: true): installs the runner capture hook, so
//     every runner.Map sweep becomes its own capture window tagged
//     with the sweep's span identity. Used by the sweep drivers
//     (bcetables, bcecal, bceworker).
//   - process mode: opens a single window spanning the whole process,
//     closed by the returned stop function. Used by the binaries
//     whose interesting unit of work is the process itself (bcesim,
//     bcetrace, bcenetproxy).
//
// bcebench and bcereport never profile themselves: their -profile-dir
// names the ring that child benchmark profiles are written to
// (bcebench) or that manifests' profiles are read from (bcereport).

// Flags holds the registered -profile-* flag values.
type Flags struct {
	Dir   *string
	Rate  *int
	Mutex *int
	Block *int
}

// RegisterFlags defines -profile-dir, -profile-rate, -profile-mutex
// and -profile-block on fs (flag.CommandLine if nil).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &Flags{
		Dir:   fs.String("profile-dir", "", "capture CPU+heap profiles into a content-addressed ring store in this directory (empty = profiling off)"),
		Rate:  fs.Int("profile-rate", 0, "CPU profile sampling rate in Hz (0 = runtime default, 100)"),
		Mutex: fs.Int("profile-mutex", 0, "mutex profile fraction, runtime.SetMutexProfileFraction (0 = off)"),
		Block: fs.Int("profile-block", 0, "block profile rate in ns, runtime.SetBlockProfileRate (0 = off)"),
	}
}

// Options converts the parsed flags to EnableOptions.
func (f *Flags) Options() EnableOptions {
	return EnableOptions{
		Dir:           *f.Dir,
		RateHz:        *f.Rate,
		MutexFraction: *f.Mutex,
		BlockRate:     *f.Block,
	}
}

// EnableOptions configures Enable.
type EnableOptions struct {
	Dir           string
	RateHz        int
	MutexFraction int
	BlockRate     int
	// Sweeps selects sweep mode (runner hook) instead of one
	// process-wide window.
	Sweeps bool
	Logger *slog.Logger
}

// Enable starts profiling per o. The returned stop function must be
// called before process exit (it closes the open window, uninstalls
// the runner hook, and logs a capture summary); the returned
// *Capturer is nil when -profile-dir was empty, and every Capturer
// method is nil-safe, so callers can thread it through
// unconditionally.
//
// With an empty Dir, mutex/block rates are still applied process-wide
// when requested — that is what lights up /debug/pprof/mutex and
// /debug/pprof/block on the debug endpoint without any local capture.
func Enable(o EnableOptions) (*Capturer, func(), error) {
	logger := o.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if o.Dir == "" {
		if o.MutexFraction > 0 {
			runtime.SetMutexProfileFraction(o.MutexFraction)
		}
		if o.BlockRate > 0 {
			runtime.SetBlockProfileRate(o.BlockRate)
		}
		return nil, func() {}, nil
	}
	c, err := NewCapturer(Options{
		Dir:           o.Dir,
		RateHz:        o.RateHz,
		Heap:          true,
		MutexFraction: o.MutexFraction,
		BlockRate:     o.BlockRate,
		Logger:        logger,
	})
	if err != nil {
		return nil, nil, err
	}
	var procPhase *Phase
	if o.Sweeps {
		runner.SetCaptureHook(func(ctx context.Context, phase string) func() {
			p := c.StartPhase(ctx, phase)
			return p.End
		})
	} else {
		procPhase = c.StartPhase(context.Background(), "process")
	}
	stop := func() {
		if o.Sweeps {
			runner.SetCaptureHook(nil)
		}
		procPhase.End()
		ov := c.Overhead()
		logger.Info("profiling summary",
			"dir", o.Dir,
			"profiles", ov.Captures,
			"skipped", ov.Skipped,
			"overhead_frac", ov.Fraction)
	}
	return c, stop, nil
}

// DebugVar returns a closure for the debug endpoint's vars map
// exposing the capturer's live overhead accounting (nil-safe: a nil
// capturer reports zeros).
func (c *Capturer) DebugVar() func() any {
	return func() any { return c.Overhead() }
}
