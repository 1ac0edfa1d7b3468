package prof

import (
	"context"
	"strings"
	"testing"
	"time"

	"bce/internal/runner"
)

func TestEnableDisabled(t *testing.T) {
	c, stop, err := Enable(EnableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Error("Enable with no dir returned a capturer")
	}
	stop() // must be a safe no-op
}

// sweepOnce runs one small runner.Map sweep and returns its results.
// Jobs run on concurrent pool goroutines, so each burns into its own
// sink slot; the package-level burnSink is written only afterwards,
// from the test goroutine.
func sweepOnce(t *testing.T) []int {
	t.Helper()
	pool := runner.New(runner.Options{Workers: 2})
	items := []int{1, 2, 3}
	sinks := make([]float64, len(items))
	out, err := runner.Map(context.Background(), pool, items,
		func(ctx context.Context, i int, item int) (int, error) {
			deadline := time.Now().Add(30 * time.Millisecond)
			for time.Now().Before(deadline) {
				sinks[i] = burnCPU(1 << 12)
			}
			return item * item, nil
		})
	if err != nil {
		t.Fatalf("runner.Map: %v", err)
	}
	for _, s := range sinks {
		burnSink += s
	}
	return out
}

func TestEnableSweepMode(t *testing.T) {
	c, stop, err := Enable(EnableOptions{Dir: t.TempDir(), Sweeps: true})
	if err != nil {
		t.Fatal(err)
	}
	got := sweepOnce(t)
	if got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Errorf("sweep results corrupted under capture: %v", got)
	}
	stop()

	recs := c.Records()
	if len(recs) == 0 {
		t.Skip("no capture window opened (CPU profiler owned elsewhere)")
	}
	var sawSweepCPU bool
	for _, r := range recs {
		if r.Kind == "cpu" && strings.HasPrefix(r.Phase, "sweep(jobs=3)#") {
			sawSweepCPU = true
		}
	}
	if !sawSweepCPU {
		t.Errorf("no cpu record for phase sweep(jobs=3) in %+v", recs)
	}

	// stop() uninstalled the hook: further sweeps must not capture.
	before := len(c.Records())
	sweepOnce(t)
	if after := len(c.Records()); after != before {
		t.Errorf("capture hook still live after stop: %d -> %d records", before, after)
	}
}

func TestEnableProcessMode(t *testing.T) {
	c, stop, err := Enable(EnableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		burnSink = burnCPU(1 << 12)
	}
	stop()
	recs := c.Records()
	if len(recs) == 0 {
		t.Skip("no capture window opened (CPU profiler owned elsewhere)")
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Phase, "process#") {
			t.Errorf("record phase = %q, want process#n", r.Phase)
		}
	}
}
