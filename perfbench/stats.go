package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. ok is false when fewer than minBeyond samples lie beyond
// that rank, or when sorted is empty. The median (p = 50) is exempt from
// the tail rule.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || !(p > 0 && p <= 100) {
		return math.NaN(), false
	}
	// The epsilon keeps a p such as 99.9, inexact in binary, from
	// rounding its rank up past an exact integer.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths) without modifying xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one benchmark-side trace interval around a call into a layer.
// Parent is the index of the enclosing span in the same tracer, -1 at
// the root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration
}

// tracer records spans in memory relative to its creation; nothing is
// written until the benchmark reports.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	t.end(id)
	return t.spans[id].End - t.spans[id].Start
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (concurrent work under one parent) are merged before subtracting, so a
// self time is never negative.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name, in milliseconds, and counts
// the spans of each name.
func selfByName(spans []span) (ms map[string]float64, n map[string]int) {
	self := selfTimes(spans)
	ms, n = map[string]float64{}, map[string]int{}
	for i, s := range spans {
		ms[s.Name] += float64(self[i]) / 1e6
		n[s.Name]++
	}
	return ms, n
}

// cpuTicks reads the aggregate CPU line of /proc/stat: the ticks stolen
// by the hypervisor and the total. ok is false where /proc/stat is
// absent or unreadable.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] { // user … steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealNote prints the share of CPU time the hypervisor stole since the
// ticks t0 were read: host contention a run cannot control, printed so
// a noisy run can be told from a slow program.
func (r *run) stealNote(steal0, total0 uint64, ok0 bool) {
	steal1, total1, ok1 := cpuTicks()
	if ok0 && ok1 && total1 > total0 {
		r.note("host.steal_pct", "%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
}

// selfCPU is the CPU time, user plus system, this process has used so
// far. Unlike wall time it leaves out time the hypervisor stole.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat
// (USER_HZ, which Linux fixes at 100 for user space).
const clockTick = 10 * time.Millisecond

// pidCPU is the CPU time, user plus system over all threads, that process
// pid has used so far, read from /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis with field 3, the state.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the name", pid, len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] { // fields 14 and 15: utime, stime
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}
