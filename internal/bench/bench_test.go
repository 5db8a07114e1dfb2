package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func entry(id, solver string, iters int, wall float64) experiments.BenchEntry {
	return experiments.BenchEntry{ID: id, Solver: solver, Iterations: iters, WallMS: wall}
}

func TestCompareCleanRun(t *testing.T) {
	base := []experiments.BenchEntry{
		entry("E1", "bdd", 0, 200),
		entry("E3", "sor", 52, 22),
	}
	cur := []experiments.BenchEntry{
		entry("E1", "bdd", 0, 260), // 1.3x and +60ms: inside the factor band
		entry("E3", "sor", 52, 80), // 3.6x: inside the factor band
	}
	if regs := Compare(cur, base, DefaultTolerance()); len(regs) != 0 {
		t.Errorf("clean run flagged: %v", regs)
	}
}

// TestCompareFlagsInjectedSlowdown is the core acceptance property: a
// 10x wall-time slowdown on a non-trivial experiment must be caught.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := []experiments.BenchEntry{entry("E1", "bdd", 0, 200)}
	cur := []experiments.BenchEntry{entry("E1", "bdd", 0, 2000)}
	regs := Compare(cur, base, DefaultTolerance())
	if len(regs) != 1 || !strings.Contains(regs[0].Reason, "wall") {
		t.Fatalf("10x slowdown not flagged as wall regression: %v", regs)
	}
}

func TestCompareNoiseFloorOnTinyEntries(t *testing.T) {
	// 10x on a 0.5ms experiment is 4.5ms of jitter — below the absolute
	// slack, so it must NOT flag.
	base := []experiments.BenchEntry{entry("E2", "bdd", 0, 0.5)}
	cur := []experiments.BenchEntry{entry("E2", "bdd", 0, 5)}
	if regs := Compare(cur, base, DefaultTolerance()); len(regs) != 0 {
		t.Errorf("sub-slack jitter flagged: %v", regs)
	}
}

func TestCompareFlagsSolverAndIterationDrift(t *testing.T) {
	base := []experiments.BenchEntry{entry("E3", "sor", 52, 22)}
	cur := []experiments.BenchEntry{entry("E3", "gth", 300, 22)}
	regs := Compare(cur, base, DefaultTolerance())
	if len(regs) != 2 {
		t.Fatalf("want solver + iteration regressions, got %v", regs)
	}
	joined := regs[0].String() + " " + regs[1].String()
	if !strings.Contains(joined, "solver changed") || !strings.Contains(joined, "iterations grew") {
		t.Errorf("unexpected reasons: %v", regs)
	}
}

func TestCompareMissingEntriesBothWays(t *testing.T) {
	base := []experiments.BenchEntry{entry("E1", "bdd", 0, 200), entry("E9", "mc", 0, 10)}
	cur := []experiments.BenchEntry{entry("E1", "bdd", 0, 200), entry("E14", "new", 0, 1)}
	regs := Compare(cur, base, DefaultTolerance())
	if len(regs) != 2 {
		t.Fatalf("want 2 coverage regressions, got %v", regs)
	}
	joined := regs[0].String() + " " + regs[1].String()
	if !strings.Contains(joined, "E14: not in baseline") || !strings.Contains(joined, "E9: ") {
		t.Errorf("unexpected coverage findings: %v", regs)
	}
}

func TestCompareZeroToleranceFallsBackToDefault(t *testing.T) {
	base := []experiments.BenchEntry{entry("E1", "bdd", 0, 200)}
	cur := []experiments.BenchEntry{entry("E1", "bdd", 0, 260)}
	if regs := Compare(cur, base, Tolerance{}); len(regs) != 0 {
		t.Errorf("zero tolerance should mean the default band, got %v", regs)
	}
}

// TestCollectAggregatesSuite runs the real suite once and checks the
// aggregation plumbing end to end; percentile math is covered through
// the round-trip below.
func TestCollectAggregatesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	entries, err := Collect(1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 13 {
		t.Fatalf("got %d entries, want >= 13", len(entries))
	}
	byID := make(map[string]experiments.BenchEntry, len(entries))
	for _, e := range entries {
		byID[e.ID] = e
		if e.WallMS <= 0 {
			t.Errorf("%s: wall %.3fms, want > 0", e.ID, e.WallMS)
		}
		if e.Runs != 1 {
			t.Errorf("%s: runs %d, want 1", e.ID, e.Runs)
		}
		if e.WallMSP95 < e.WallMS {
			t.Errorf("%s: p95 %.3f < median %.3f", e.ID, e.WallMSP95, e.WallMS)
		}
	}
	// Every experiment of the tutorial tables (E1–E12) names the solver
	// that dominated it; E14–E16 drive pipelines rather than one solver.
	for i := 1; i <= 12; i++ {
		id := fmt.Sprintf("E%d", i)
		if e, ok := byID[id]; !ok {
			t.Errorf("suite missing %s", id)
		} else if e.Solver == "" {
			t.Errorf("%s has no solver label", id)
		}
	}
	// The iterative experiments must surface nonzero iteration counts.
	for _, id := range []string{"E3", "E6", "E7"} {
		if byID[id].Iterations == 0 {
			t.Errorf("%s recorded no solver iterations", id)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(entries) {
		t.Fatalf("round trip lost entries: %d != %d", len(loaded), len(entries))
	}
	if regs := Compare(loaded, entries, DefaultTolerance()); len(regs) != 0 {
		t.Errorf("self-compare flagged: %v", regs)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(vs, 0.95); got != 10 {
		t.Errorf("p95 of 1..10 = %g", got)
	}
	if got := percentile(vs, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %g", got)
	}
}

// TestTrendSortsNumerically: E2 must sort before E10, and the trend rows
// must carry the median/p95 fields the dashboard renders.
func TestTrendSortsNumerically(t *testing.T) {
	entries := []experiments.BenchEntry{
		{ID: "E10", Title: "ten", Solver: "gth", WallMS: 5, WallMSP95: 9, Runs: 3},
		{ID: "E2", Title: "two", Solver: "bdd", WallMS: 1, WallMSP95: 2, Iterations: 7, Runs: 3},
	}
	trend := Trend(entries)
	if len(trend) != 2 || trend[0].ID != "E2" || trend[1].ID != "E10" {
		t.Fatalf("trend order: %+v", trend)
	}
	p := trend[0]
	if p.MedianMS != 1 || p.P95MS != 2 || p.Iterations != 7 || p.Solver != "bdd" || p.Runs != 3 {
		t.Errorf("trend row lost fields: %+v", p)
	}
}

// TestLoadTrendFromCommittedBaseline reads the repo's own baseline file.
func TestLoadTrendFromCommittedBaseline(t *testing.T) {
	trend, err := LoadTrend(filepath.Join("..", "..", "BENCH_solvers.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) < 10 {
		t.Fatalf("baseline trend has %d rows, want the full suite", len(trend))
	}
	for i := 1; i < len(trend); i++ {
		ni, _ := experimentNumber(trend[i-1].ID)
		nj, _ := experimentNumber(trend[i].ID)
		if ni >= nj {
			t.Errorf("trend not in numeric order: %s then %s", trend[i-1].ID, trend[i].ID)
		}
	}
	if trend[0].MedianMS <= 0 {
		t.Errorf("E1 median = %v, want > 0", trend[0].MedianMS)
	}
}

func TestLoadTrendMissingFile(t *testing.T) {
	if _, err := LoadTrend(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}
