// Command bcenetproxy runs the network chaos proxy standalone: a TCP
// forwarder that degrades the path between a coordinator and one
// worker per a deterministic fault schedule (see
// internal/faults/netproxy and docs/robustness.md).
//
// Usage:
//
//	bcenetproxy -target 127.0.0.1:8371 -schedule chaos.json -addr-file proxy1.addr
//
// The proxy listens on an ephemeral localhost port, writes the chosen
// address to -addr-file (write-then-rename, so a watching script never
// reads a half-written file), and forwards until SIGINT/SIGTERM. On
// shutdown it prints its fault-injection statistics as JSON on stderr.
//
// The schedule file is the netproxy JSON form, e.g.:
//
//	{"seed": 7, "repeat": true, "rules": [
//	  {"for_ms": 200, "latency_ms": 5, "jitter_ms": 10},
//	  {"for_ms": 50, "partition": true},
//	  {"for_ms": 200, "reset_prob": 0.05}
//	]}
//
// Identical seed + schedule + traffic replays identical fault
// decisions, which is what lets CI assert byte-identical sweep output
// under chaos.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bce/internal/cli"
	"bce/internal/faults/netproxy"
)

func main() {
	var (
		target   = flag.String("target", "", "host:port to forward to (required)")
		schedule = flag.String("schedule", "", "path to the fault-schedule JSON file (required)")
		addrFile = flag.String("addr-file", "", "write the proxy's listen address to this file (optional)")
	)
	// Process-mode profiling: one capture window spanning the proxy's
	// lifetime (the interesting cost here is the forwarding goroutines,
	// not any sweep phase).
	cli.Main(cli.Spec{Name: "bcenetproxy", Profiling: cli.Process}, func(env cli.Env) error {
		if *target == "" || *schedule == "" {
			return cli.Usagef("-target and -schedule are required")
		}
		f, err := os.Open(*schedule)
		if err != nil {
			return err
		}
		sched, err := netproxy.DecodeSchedule(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("schedule: %w", err)
		}

		p, err := netproxy.Start(*target, sched, env.Logger)
		if err != nil {
			return err
		}
		defer p.Close()
		if *addrFile != "" {
			tmp := *addrFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(p.Addr()), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, *addrFile); err != nil {
				return err
			}
		}
		// Greppable by scripts, like bceworker's serving line.
		fmt.Fprintf(os.Stderr, "bcenetproxy: %s proxying for %s\n", p.Addr(), *target)

		<-env.Ctx.Done()
		p.Close()
		if stats, err := json.Marshal(p.Stats()); err == nil {
			fmt.Fprintf(os.Stderr, "bcenetproxy: stats %s\n", stats)
		}
		return nil
	})
}
