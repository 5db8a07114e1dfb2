package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a stepping clock for deterministic window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestSlidingCounterEmptyWindow(t *testing.T) {
	clk := newFakeClock()
	c := NewSlidingCounter(time.Minute, 6)
	good, bad := c.TotalsAt(clk.Now())
	if good != 0 || bad != 0 {
		t.Fatalf("empty window totals = %d,%d, want 0,0", good, bad)
	}
	// Reading an empty window repeatedly (with the clock moving) must
	// stay zero and must not panic or underflow.
	for i := 0; i < 10; i++ {
		clk.Advance(30 * time.Second)
		if g, b := c.TotalsAt(clk.Now()); g != 0 || b != 0 {
			t.Fatalf("step %d: totals = %d,%d, want 0,0", i, g, b)
		}
	}
	if got := c.Span(); got != time.Minute {
		t.Fatalf("Span = %v, want 1m", got)
	}
}

func TestSlidingCounterExpiry(t *testing.T) {
	clk := newFakeClock()
	// 60s window, 6 buckets of 10s.
	c := NewSlidingCounter(time.Minute, 6)

	c.RecordAt(clk.Now(), true) // bad at t0
	clk.Advance(30 * time.Second)
	c.RecordAt(clk.Now(), false) // good at t0+30
	if g, b := c.TotalsAt(clk.Now()); g != 1 || b != 1 {
		t.Fatalf("mid-window totals = %d,%d, want 1,1", g, b)
	}

	// Advance so the bad event's bucket ages out but the good one stays.
	clk.Advance(45 * time.Second) // now t0+75; bad bucket [t0,t0+10) expired
	if g, b := c.TotalsAt(clk.Now()); g != 1 || b != 0 {
		t.Fatalf("after partial expiry totals = %d,%d, want 1,0", g, b)
	}

	// Advance beyond the full window: everything expires.
	clk.Advance(2 * time.Minute)
	if g, b := c.TotalsAt(clk.Now()); g != 0 || b != 0 {
		t.Fatalf("after full expiry totals = %d,%d, want 0,0", g, b)
	}
}

func TestSlidingCounterBucketBoundaryStepping(t *testing.T) {
	clk := newFakeClock()
	c := NewSlidingCounter(10*time.Second, 5) // 2s buckets

	// Record one event per bucket, stepping the clock exactly one
	// bucket-width at a time across the boundary.
	for i := 0; i < 5; i++ {
		if i > 0 {
			clk.Advance(2 * time.Second)
		}
		c.RecordAt(clk.Now(), i%2 == 0)
	}
	g, b := c.TotalsAt(clk.Now())
	if g+b != 5 {
		t.Fatalf("all five events should still be in window, got %d good %d bad", g, b)
	}

	// One more bucket step evicts exactly the oldest event each time.
	for i := 0; i < 5; i++ {
		clk.Advance(2 * time.Second)
		g, b = c.TotalsAt(clk.Now())
		if got, want := g+b, uint64(4-i); got != want {
			t.Fatalf("after %d evictions: %d events in window, want %d", i+1, got, want)
		}
	}
}

func TestSlidingCounterClockJumpClearsRing(t *testing.T) {
	clk := newFakeClock()
	c := NewSlidingCounter(time.Minute, 6)
	for i := 0; i < 100; i++ {
		c.RecordAt(clk.Now(), i%3 == 0)
	}
	// Jump far past the whole window in one step (e.g. a suspended VM).
	clk.Advance(24 * time.Hour)
	if g, b := c.TotalsAt(clk.Now()); g != 0 || b != 0 {
		t.Fatalf("after clock jump totals = %d,%d, want 0,0", g, b)
	}
	// The ring must still accept new events after the wipe.
	c.RecordAt(clk.Now(), false)
	if g, b := c.TotalsAt(clk.Now()); g != 1 || b != 0 {
		t.Fatalf("post-jump record totals = %d,%d, want 1,0", g, b)
	}
}

func TestSlidingCounterBackwardClockStep(t *testing.T) {
	clk := newFakeClock()
	c := NewSlidingCounter(time.Minute, 6)
	c.RecordAt(clk.Now(), false)
	clk.Advance(-30 * time.Second) // non-monotonic clock
	c.RecordAt(clk.Now(), true)    // must not panic or rotate backwards
	if g, b := c.TotalsAt(clk.Now()); g != 1 || b != 1 {
		t.Fatalf("backward-step totals = %d,%d, want 1,1", g, b)
	}
}

// TestSlidingCounterConcurrentRotation hammers Record and Totals from
// many goroutines while the clock is stepped across bucket boundaries;
// run under -race it locks the snapshot-concurrent-with-rotation path.
func TestSlidingCounterConcurrentRotation(t *testing.T) {
	clk := newFakeClock()
	c := NewSlidingCounter(100*time.Millisecond, 10)

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				c.RecordAt(clk.Now(), i%5 == 0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			g, b := c.TotalsAt(clk.Now())
			// Totals must be internally consistent: a snapshot taken
			// mid-rotation can never exceed what the window holds by
			// construction (uint64 sums of live buckets).
			_ = g + b
		}
	}()
	for i := 0; i < 200; i++ {
		clk.Advance(10 * time.Millisecond) // one bucket per step
	}
	stop.Store(true)
	wg.Wait()

	// After a full window of silence everything drains to zero.
	clk.Advance(time.Second)
	if g, b := c.TotalsAt(clk.Now()); g != 0 || b != 0 {
		t.Fatalf("drained totals = %d,%d, want 0,0", g, b)
	}
}

// fillAt records one good event every 1/rate seconds for a full span
// ending at the returned time, so the ring is as full as sustained
// traffic at rate leaves it.
func fillAt(c *SlidingCounter, rate float64) time.Time {
	clk := time.Unix(1_700_000_000, 0)
	step := time.Duration(float64(time.Second) / rate)
	for n := int(rate * c.Span().Seconds()); n > 0; n-- {
		clk = clk.Add(step)
		c.RecordAt(clk, false)
	}
	return clk
}

// TestSlidingCounterCostIndependentOfRate: a window filled at 100/s and
// one filled at 1600/s both record without allocating and keep exactly
// their n buckets — per-event cost and memory do not grow with load.
func TestSlidingCounterCostIndependentOfRate(t *testing.T) {
	for _, rate := range []float64{100, 1600} {
		c := NewSlidingCounter(time.Minute, 30)
		clk := fillAt(c, rate)
		step := time.Duration(float64(time.Second) / rate)
		allocs := testing.AllocsPerRun(1000, func() {
			clk = clk.Add(step)
			c.RecordAt(clk, false)
		})
		if allocs != 0 {
			t.Errorf("rate %g/s: RecordAt allocates %g times per event, want 0", rate, allocs)
		}
		if len(c.buckets) != 30 || cap(c.buckets) != 30 {
			t.Errorf("rate %g/s: ring holds %d buckets (cap %d), want 30", rate, len(c.buckets), cap(c.buckets))
		}
		good, _ := c.TotalsAt(clk)
		if lo, hi := uint64(rate*58), uint64(rate*60)+1; good < lo || good > hi {
			t.Errorf("rate %g/s: window holds %d events, want within [%d, %d]", rate, good, lo, hi)
		}
	}
}

// BenchmarkSlidingCounterRecord times one RecordAt on a window already
// full at the given request rate; the two rates should cost the same.
func BenchmarkSlidingCounterRecord(b *testing.B) {
	for _, rate := range []float64{100, 1600} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			c := NewSlidingCounter(time.Minute, 30)
			clk := fillAt(c, rate)
			step := time.Duration(float64(time.Second) / rate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk = clk.Add(step)
				c.RecordAt(clk, i%50 == 0)
			}
		})
	}
}
