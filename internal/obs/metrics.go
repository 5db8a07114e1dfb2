package obs

import "repro/internal/metrics"

// SolverMetrics folds finished traces into a metrics.Registry, turning
// per-solve span trees into cross-solve aggregates. It pattern matches
// the attribute vocabulary the solvers already emit (see internal/linalg,
// markov, hier, faulttree, guard):
//
//   - spans carrying a "solver" attribute feed a wall-time histogram
//     labeled {solver, model};
//   - spans with iterations feed an iteration counter and a
//     last-residual gauge labeled {solver, model} (the span name stands
//     in when no "solver" attribute is set);
//   - "guard.chain" spans feed fallback counters: one per attempt labeled
//     {chain, method, class} and one per decided chain labeled
//     {chain, winner} ("" when exhausted);
//   - "outcome" attributes (set by guard.RecordInterrupt, RecoverPanic,
//     and chain exhaustion) feed a guard-outcome counter labeled
//     {outcome} — canceled, deadline, panic, exhausted;
//   - "guard_warning_op" attributes (warn-mode guard rails) feed a
//     rail-warning counter labeled {op}.
//
// The families are resolved once, at construction; Fold then costs a
// walk over the tree per solve, independent of how many iterations the
// solvers recorded.
type SolverMetrics struct {
	spans     *metrics.Counter
	solves    *metrics.Counter
	wall      *metrics.Histogram
	iters     *metrics.Counter
	residual  *metrics.Gauge
	attempts  *metrics.Counter
	winners   *metrics.Counter
	outcomes  *metrics.Counter
	railWarns *metrics.Counter
	lumped    *metrics.Counter
	lumpRatio *metrics.Gauge
}

// NewSolverMetrics registers the relscope solver-metric families on reg
// (idempotently — registries dedupe by name).
func NewSolverMetrics(reg *metrics.Registry) *SolverMetrics {
	return &SolverMetrics{
		spans: reg.NewCounter("relscope_spans_total",
			"Solver telemetry spans opened.", "model"),
		solves: reg.NewCounter("relscope_solves_total",
			"Model solves started (root spans).", "model"),
		wall: reg.NewHistogram("relscope_solver_wall_seconds",
			"Wall time of solver spans.", nil, "solver", "model"),
		iters: reg.NewCounter("relscope_solver_iterations_total",
			"Iterations recorded by iterative solvers.", "solver", "model"),
		residual: reg.NewGauge("relscope_solver_last_residual",
			"Most recent convergence residual per solver.", "solver", "model"),
		attempts: reg.NewCounter("relscope_chain_attempts_total",
			"Fallback-chain attempts by failure class (class \"none\" is success).", "chain", "method", "class", "model"),
		winners: reg.NewCounter("relscope_chain_decided_total",
			"Fallback chains decided, by winning method (winner \"\" means exhausted).", "chain", "winner", "model"),
		outcomes: reg.NewCounter("relscope_guard_outcomes_total",
			"Guard outcomes observed on spans: canceled, deadline, panic, exhausted.", "outcome", "model"),
		railWarns: reg.NewCounter("relscope_rail_warnings_total",
			"Warn-mode numerical guard-rail violations by check site.", "op", "model"),
		lumped: reg.NewCounter("relscope_lump_applied_total",
			"Automatic lumping pre-passes applied before a solve.", "model"),
		lumpRatio: reg.NewGauge("relscope_lump_reduction_ratio",
			"Most recent state-space reduction ratio (states/blocks) from automatic lumping.", "model"),
	}
}

// Fold adds one finished trace to the aggregates, labeling every sample
// with the model name. root is the caller's span (Trace.Finish): each of
// its children counts as one solve, and the root's own attributes and
// iterations are not solver telemetry.
func (m *SolverMetrics) Fold(root *Span, model string) {
	for _, s := range root.Children {
		m.solves.Inc(model)
		m.fold(s, "", model)
	}
}

// fold aggregates one span and its subtree. chain is the enclosing
// guard.chain name, which attempt spans need to label their counters.
func (m *SolverMetrics) fold(s *Span, chain, model string) {
	m.spans.Inc(model)
	var method, solver string
	for _, a := range s.Attrs {
		if a.Key == "lump_ratio" {
			// The one float the fold aggregates: a "relstruct.lump" span
			// announcing an applied state-space reduction.
			if f, ok := a.Value().(float64); ok {
				m.lumped.Inc(model)
				m.lumpRatio.Set(f, model)
			}
			continue
		}
		v, isString := a.Value().(string)
		if !isString {
			continue
		}
		switch a.Key {
		case "solver":
			solver = v
		case "chain":
			chain = v
		case "method":
			method = v
		case "failure_class":
			m.attempts.Inc(chain, method, v, model)
		case "winner":
			m.winners.Inc(chain, v, model)
		case "outcome":
			if v == "exhausted" {
				// A chain span reporting exhaustion also sets winner="";
				// count it under both surfaces.
				m.winners.Inc(chain, "", model)
			}
			m.outcomes.Inc(v, model)
		case "guard_warning_op":
			m.railWarns.Inc(v, model)
		}
	}
	for _, c := range s.Children {
		m.fold(c, chain, model)
	}
	if n := len(s.Iters); n > 0 {
		label := solver
		if label == "" {
			label = s.Name
		}
		m.iters.Add(float64(n), label, model)
		m.residual.Set(s.Iters[n-1].Residual, label, model)
	}
	// Purely structural spans (measure:*, modelio.solve) only count
	// toward relscope_spans_total, and a span the solve abandoned has no
	// wall time of its own.
	if solver != "" && !s.abandoned {
		m.wall.Observe(float64(s.WallNS)/1e9, solver, model)
	}
}

// MetricsRecorder adapts SolverMetrics to the Recorder interface for
// callers that fan one live solve out with Multi: each root span is
// traced into a private Trace and folded when it ends. relcli folds its
// own trace instead and does not need it.
type MetricsRecorder struct {
	m     *SolverMetrics
	model string
}

// NewMetricsRecorder returns an adapter that folds every solve into
// reg's relscope families, labeled with the given model name.
func NewMetricsRecorder(reg *metrics.Registry, model string) *MetricsRecorder {
	return &MetricsRecorder{m: NewSolverMetrics(reg), model: model}
}

// Enabled implements Recorder.
func (r *MetricsRecorder) Enabled() bool { return true }

// Span implements Recorder: the root of a new solve, traced privately.
func (r *MetricsRecorder) Span(name string, attrs ...Attr) Recorder {
	tr := NewTrace(r.model)
	return &foldOnEnd{Recorder: tr.Span(name, attrs...), tr: tr, r: r}
}

// End, Iter, IterLabel, and Set outside any span have no aggregate
// meaning and are ignored.
func (r *MetricsRecorder) End()                           {}
func (r *MetricsRecorder) Iter(int, float64)              {}
func (r *MetricsRecorder) IterLabel(int, float64, string) {}
func (r *MetricsRecorder) Set(...Attr)                    {}

// foldOnEnd is a root span of a MetricsRecorder solve: it records into
// the private trace and folds that trace when the span ends.
type foldOnEnd struct {
	Recorder
	tr *Trace
	r  *MetricsRecorder
}

func (f *foldOnEnd) End() {
	f.Recorder.End()
	f.r.m.Fold(f.tr.Finish(), f.r.model)
}
