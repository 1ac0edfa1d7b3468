// Package cli is the start-up shell every bce binary runs in. It owns
// the flags the binaries share (-log-level, -log-format, -version, the
// -profile-* group and, where a binary serves one, -debug-addr), the
// structured logger, the bce_build_info identity line, continuous
// profiling, the debug endpoint, signal-driven shutdown and the exit
// status: 0 on success, 2 for a flag or set-up error, 1 for a failed
// run, and 130 when a second interrupt kills a draining process.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"bce/internal/manifest"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// Profiling selects how a binary profiles itself under -profile-dir.
type Profiling int

const (
	// NoProfiling registers no -profile-* flags.
	NoProfiling Profiling = iota
	// Process captures one window spanning the whole invocation.
	Process
	// Sweeps makes every runner.Map sweep its own capture window.
	Sweeps
)

// Spec describes one binary to Main.
type Spec struct {
	Name string
	// Labels are the bce_build_info labels beyond the git revision.
	Labels    map[string]string
	Profiling Profiling
	// Debug registers -debug-addr. The endpoint serves Vars beside the
	// standard bce_runner and bce_prof vars.
	Debug bool
	Vars  map[string]func() any
}

// Env is what a binary's body runs with.
type Env struct {
	// Ctx is cancelled by the first SIGINT or SIGTERM.
	Ctx    context.Context
	Logger *slog.Logger
	// Prof is nil unless -profile-dir is set; its methods are nil-safe.
	Prof *prof.Capturer
	// Args are the positional arguments left after the flags.
	Args []string
}

type usageError struct{ error }

// Usagef reports a command-line mistake found after flag parsing:
// Main prints it and exits with status 2.
func Usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Main runs a binary whose own flags are already registered on
// flag.CommandLine, and exits with the status its body's result maps
// to.
func Main(spec Spec, body func(Env) error) {
	os.Exit(spec.Exec(flag.CommandLine, os.Args[1:], os.Stdout, os.Stderr, body))
}

// Exec is Main without the exit: it registers the shared flags on fs,
// parses args, sets up logging, profiling, the debug endpoint and
// shutdown, runs body and returns the exit status. -version prints the
// identity line to stdout and returns before anything starts.
func (s Spec) Exec(fs *flag.FlagSet, args []string, stdout, stderr io.Writer, body func(Env) error) int {
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	version := fs.Bool("version", false, "print the bce_build_info identity line and exit")
	var debugAddr *string
	if s.Debug {
		debugAddr = fs.String("debug-addr", "", "serve pprof, expvar and live sweep stats on this address (e.g. localhost:6060); Prometheus text format on /metrics")
	}
	var profFlags *prof.Flags
	if s.Profiling != NoProfiling {
		profFlags = prof.RegisterFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", s.Name, err)
		return status
	}

	logger, err := telemetry.InitLogging(stderr, *logLevel, *logFormat)
	if err != nil {
		return fail(2, err)
	}
	logger = logger.With("bin", s.Name)
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	for name, value := range s.Labels {
		telemetry.RegisterBuildLabel(name, value)
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.BuildInfoLine())
		return 0
	}

	env := Env{Logger: logger, Args: fs.Args()}
	if profFlags != nil {
		opts := profFlags.Options()
		opts.Sweeps = s.Profiling == Sweeps
		opts.Logger = logger
		capturer, stop, err := prof.Enable(opts)
		if err != nil {
			return fail(2, err)
		}
		defer stop()
		env.Prof = capturer
	}
	if debugAddr != nil && *debugAddr != "" {
		vars := map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
			"bce_prof":   env.Prof.DebugVar(),
		}
		for name, fn := range s.Vars {
			vars[name] = fn
		}
		srv, err := telemetry.StartDebug(*debugAddr, vars)
		if err != nil {
			return fail(2, err)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}

	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	env.Ctx = ctx
	err = body(env)
	var usage usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usage):
		return fail(2, err)
	default:
		return fail(1, err)
	}
}
