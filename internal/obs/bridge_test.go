package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// driveSolve emulates the attribute vocabulary a traced solve emits:
// a root span, a chain with a failed and a winning attempt, an iterative
// solver span, and a warn-mode rail violation.
func driveSolve(rec Recorder) {
	root := rec.Span("modelio.solve", S("type", "ctmc"), S("model", "m"))
	chain := root.Span("guard.chain", S("chain", "steadystate"), I("steps", 2))
	a1 := chain.Span("attempt:sor", S("method", "sor"), I("try", 1))
	sor := a1.Span("linalg.sor", S("solver", "sor"), I("states", 6))
	sor.Iter(1, 0.5)
	sor.Iter(2, 0.01)
	sor.End()
	a1.Set(S("failure_class", "no-convergence"), S("error", "boom"))
	a1.End()
	a2 := chain.Span("attempt:gth", S("method", "gth"), I("try", 1))
	gth := a2.Span("linalg.gth", S("solver", "gth"))
	gth.End()
	a2.Set(S("failure_class", "none"))
	a2.End()
	chain.Set(I("attempts", 2), S("winner", "gth"))
	chain.End()
	root.Set(S("guard_warning", "mass off by 1e-3"), S("guard_warning_op", "ctmc.steadystate"))
	root.End()
}

// TestMetricsRecorderAggregates checks that the bridge turns the span
// vocabulary into the documented counter/gauge/histogram samples.
func TestMetricsRecorderAggregates(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewMetricsRecorder(reg, "farm")
	driveSolve(rec)

	iters := reg.NewCounter("relscope_solver_iterations_total", "Iterations recorded by iterative solvers.", "solver", "model")
	if got := iters.Value("sor", "farm"); got != 2 {
		t.Errorf("sor iterations = %g, want 2", got)
	}
	resid := reg.NewGauge("relscope_solver_last_residual", "Most recent convergence residual per solver.", "solver", "model")
	if got := resid.Value("sor", "farm"); got != 0.01 {
		t.Errorf("last residual = %g, want 0.01", got)
	}
	attempts := reg.NewCounter("relscope_chain_attempts_total", "Fallback-chain attempts by failure class (class \"none\" is success).", "chain", "method", "class", "model")
	if got := attempts.Value("steadystate", "sor", "no-convergence", "farm"); got != 1 {
		t.Errorf("failed attempt count = %g, want 1", got)
	}
	if got := attempts.Value("steadystate", "gth", "none", "farm"); got != 1 {
		t.Errorf("winning attempt count = %g, want 1", got)
	}
	winners := reg.NewCounter("relscope_chain_decided_total", "Fallback chains decided, by winning method (winner \"\" means exhausted).", "chain", "winner", "model")
	if got := winners.Value("steadystate", "gth", "farm"); got != 1 {
		t.Errorf("winner count = %g, want 1", got)
	}
	rails := reg.NewCounter("relscope_rail_warnings_total", "Warn-mode numerical guard-rail violations by check site.", "op", "model")
	if got := rails.Value("ctmc.steadystate", "farm"); got != 1 {
		t.Errorf("rail warning count = %g, want 1", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`relscope_solver_wall_seconds_count{solver="sor",model="farm"} 1`,
		`relscope_solver_wall_seconds_count{solver="gth",model="farm"} 1`,
		`relscope_solves_total{model="farm"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Structural spans (modelio.solve, guard.chain, attempts) must not
	// produce wall-time series of their own.
	if strings.Contains(out, `solver="modelio.solve"`) || strings.Contains(out, `solver="guard.chain"`) {
		t.Errorf("structural span leaked into wall histogram:\n%s", out)
	}
}

// TestMetricsRecorderOutcomes covers the guard-outcome paths: interrupt
// attrs and chain exhaustion.
func TestMetricsRecorderOutcomes(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewMetricsRecorder(reg, "m")
	sp := rec.Span("linalg.sor", S("solver", "sor"))
	sp.Set(S("outcome", "deadline"), I("iterations", 7))
	sp.End()
	ch := rec.Span("guard.chain", S("chain", "steadystate"))
	ch.Set(S("outcome", "exhausted"))
	ch.End()

	outcomes := reg.NewCounter("relscope_guard_outcomes_total", "Guard outcomes observed on spans: canceled, deadline, panic, exhausted.", "outcome", "model")
	if got := outcomes.Value("deadline", "m"); got != 1 {
		t.Errorf("deadline outcomes = %g, want 1", got)
	}
	if got := outcomes.Value("exhausted", "m"); got != 1 {
		t.Errorf("exhausted outcomes = %g, want 1", got)
	}
	winners := reg.NewCounter("relscope_chain_decided_total", "Fallback chains decided, by winning method (winner \"\" means exhausted).", "chain", "winner", "model")
	if got := winners.Value("steadystate", "", "m"); got != 1 {
		t.Errorf("exhausted chain decided count = %g, want 1", got)
	}
}

// TestMultiFansOut drives a Trace and a MetricsRecorder through one Multi
// and checks both observed the same solve; also checks the collapsing
// constructor behavior.
func TestMultiFansOut(t *testing.T) {
	if got := Multi(); got != Nop() {
		t.Errorf("Multi() = %v, want Nop", got)
	}
	if got := Multi(nil, Nop()); got != Nop() {
		t.Errorf("Multi(nil, Nop) = %v, want Nop", got)
	}
	tr := NewTrace("root")
	if got := Multi(tr, Nop()); got != Recorder(tr) {
		t.Errorf("Multi of one live recorder should return it unchanged")
	}

	reg := metrics.NewRegistry()
	mrec := NewMetricsRecorder(reg, "multi")
	m := Multi(tr, mrec)
	driveSolve(m)

	root := tr.Finish()
	if len(root.Children) == 0 || root.Children[0].Name != "modelio.solve" {
		t.Fatalf("trace missed the solve: %+v", root)
	}
	iters := reg.NewCounter("relscope_solver_iterations_total", "Iterations recorded by iterative solvers.", "solver", "model")
	if got := iters.Value("sor", "multi"); got != 2 {
		t.Errorf("metrics missed iterations through Multi: %g", got)
	}
}

// TestMultiOpenPath checks guard.SpanPather keeps working through Multi,
// so panic recovery still names the active solver.
func TestMultiOpenPath(t *testing.T) {
	tr := NewTrace("root")
	reg := metrics.NewRegistry()
	m := Multi(tr, NewMetricsRecorder(reg, "m"))
	sp := m.Span("inner")
	defer sp.End()
	p, ok := m.(interface{ OpenPath() []string })
	if !ok {
		t.Fatal("Multi recorder does not expose OpenPath")
	}
	path := p.OpenPath()
	if len(path) != 2 || path[0] != "root" || path[1] != "inner" {
		t.Errorf("OpenPath = %v, want [root inner]", path)
	}
}

// TestMetricsRecorderConcurrent drives parallel solves through one bridge
// (the serve scenario) under -race.
func TestMetricsRecorderConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewMetricsRecorder(reg, "par")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveSolve(rec)
		}()
	}
	wg.Wait()
	iters := reg.NewCounter("relscope_solver_iterations_total", "Iterations recorded by iterative solvers.", "solver", "model")
	if got := iters.Value("sor", "par"); got != 16 {
		t.Errorf("iterations = %g, want 16", got)
	}
}

// TestSolverMetricsFoldAllocsFlat checks the fold's cost does not grow
// with the recorded iterations: one solver span with 10 and with 10 000
// IterPoints allocates the same.
func TestSolverMetricsFoldAllocsFlat(t *testing.T) {
	m := NewSolverMetrics(metrics.NewRegistry())
	allocs := func(n int) float64 {
		sor := &Span{Name: "linalg.sor", Attrs: []Attr{S("solver", "sor")}, Iters: make([]IterPoint, n)}
		for i := range sor.Iters {
			sor.Iters[i] = IterPoint{N: i + 1, Residual: 1 / float64(i+1)}
		}
		root := &Span{Name: "m", Children: []*Span{{Name: "modelio.solve", Children: []*Span{sor}}}}
		return testing.AllocsPerRun(20, func() { m.Fold(root, "m") })
	}
	if few, many := allocs(10), allocs(10000); few != many {
		t.Errorf("fold allocations grow with iterations: %g at 10, %g at 10000", few, many)
	}
}
