package runner

import "time"

// Backoff computes capped exponential retry delays. It unifies the
// backoff arithmetic the coordinator's in-place batch retries and the
// pool's transient-job retries share, so "how fast do we hammer a
// struggling resource" is one policy, not two.
//
// The zero value is usable: Delay falls back to 100ms initial, 30s
// cap, factor 2.
type Backoff struct {
	// Initial is the delay before the first retry (attempt 0).
	Initial time.Duration
	// Max caps the grown delay; zero means 30s.
	Max time.Duration
	// Factor multiplies the delay per attempt; values below 1 mean 2.
	Factor float64
}

// Delay returns the wait before retry number attempt (0-based). The
// growth is computed iteratively with an early cap check, so large
// attempt counts cannot overflow time.Duration.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Initial
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 30 * time.Second
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	for ; attempt > 0; attempt-- {
		if d >= max {
			return max
		}
		d = time.Duration(float64(d) * f)
	}
	if d > max {
		return max
	}
	return d
}
