package reldash

import (
	"time"

	"repro/internal/metrics"
)

// Window is the request counter behind /api/summary. It is an alias of
// metrics.SlidingCounter, the repository's one sliding-window primitive;
// the name and NewWindow remain only because the benchmark harness
// (perfbench/replay.go, which times window records) calls them.
type Window = metrics.SlidingCounter

// NewWindow builds a window covering span in 30 buckets.
func NewWindow(span time.Duration) *Window { return metrics.NewSlidingCounter(span, 30) }
