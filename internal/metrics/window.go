package metrics

import (
	"sync"
	"time"
)

// SlidingCounter counts good/bad events over a sliding time window,
// implemented as a ring of fixed-width buckets that rotate with the
// clock. It is the repository's one sliding-window primitive: the SLO
// engine keeps one per (objective, window) for its burn rates, and the
// serve dashboard keeps one for /api/summary. Each Totals call reports
// the event counts of roughly the last Span. Cost per event is O(1) and
// memory is fixed at n buckets, whatever the request rate.
//
// The window is approximate at bucket granularity: an event recorded at
// the very start of a bucket expires a full bucket-width late. With the
// default 30 buckets the error is ~3% of the span, far below the noise
// of any burn-rate threshold.
//
// All methods are safe for concurrent use.
type SlidingCounter struct {
	mu      sync.Mutex
	bucketD time.Duration
	buckets []slidingBucket
	head    int       // index of the current bucket
	headT   time.Time // start of the current bucket (zero until first event)
}

type slidingBucket struct {
	good, bad uint64
}

// NewSlidingCounter builds a counter covering span with n buckets
// (n < 2 means 30; span <= 0 means one minute).
func NewSlidingCounter(span time.Duration, n int) *SlidingCounter {
	if n < 2 {
		n = 30
	}
	if span <= 0 {
		span = time.Minute
	}
	return &SlidingCounter{
		bucketD: span / time.Duration(n),
		buckets: make([]slidingBucket, n),
	}
}

// Span reports the window the counter covers.
func (c *SlidingCounter) Span() time.Duration {
	return c.bucketD * time.Duration(len(c.buckets))
}

// Record counts one event, bad or good, now.
func (c *SlidingCounter) Record(bad bool) { c.RecordAt(time.Now(), bad) }

// RecordAt counts one event, bad or good, at time t. Callers with their
// own clock (the SLO engine, deterministic replays) pass its reading.
func (c *SlidingCounter) RecordAt(t time.Time, bad bool) {
	c.mu.Lock()
	c.advanceLocked(t)
	if bad {
		c.buckets[c.head].bad++
	} else {
		c.buckets[c.head].good++
	}
	c.mu.Unlock()
}

// Totals reports the good and bad event counts inside the window now.
func (c *SlidingCounter) Totals() (good, bad uint64) { return c.TotalsAt(time.Now()) }

// TotalsAt reports the good and bad event counts inside the window
// ending at now, expiring aged buckets first.
func (c *SlidingCounter) TotalsAt(now time.Time) (good, bad uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(now)
	for _, b := range c.buckets {
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// advanceLocked rotates the ring so head covers the bucket containing t,
// zeroing every bucket stepped over. A clock reading at or before the
// current bucket leaves the ring untouched (monotonicity is not assumed;
// a backward step simply lands in the current bucket).
func (c *SlidingCounter) advanceLocked(t time.Time) {
	if c.headT.IsZero() {
		c.headT = t.Truncate(c.bucketD)
		return
	}
	if t.Before(c.headT.Add(c.bucketD)) {
		return
	}
	steps := int(t.Sub(c.headT) / c.bucketD)
	if steps >= len(c.buckets) {
		for i := range c.buckets {
			c.buckets[i] = slidingBucket{}
		}
		c.headT = t.Truncate(c.bucketD)
		return
	}
	for i := 0; i < steps; i++ {
		c.head = (c.head + 1) % len(c.buckets)
		c.buckets[c.head] = slidingBucket{}
	}
	c.headT = c.headT.Add(time.Duration(steps) * c.bucketD)
}
