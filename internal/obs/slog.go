package obs

import (
	"context"
	"log/slog"
)

// LogSpans renders one finished trace as structured log events. root is
// the caller's span (Trace.Finish); every span below it, in post order,
// logs its per-iteration convergence records at Debug (enable a
// Debug-level handler to see residual trajectories) and then one Info
// "span" event with its dotted path (root name excluded), wall time,
// iteration summary, and attributes. Spans the solve abandoned log no
// span event. A nil logger uses slog.Default(). relcli exposes it as
// `-log text|json`.
func LogSpans(l *slog.Logger, root *Span) {
	if l == nil {
		l = slog.Default()
	}
	debug := l.Enabled(context.Background(), slog.LevelDebug)
	for _, s := range root.Children {
		logSpan(l, debug, "", s)
	}
}

func logSpan(l *slog.Logger, debug bool, parentPath string, s *Span) {
	path := s.Name
	if parentPath != "" {
		path = parentPath + "." + s.Name
	}
	for _, c := range s.Children {
		logSpan(l, debug, path, c)
	}
	if debug {
		for _, it := range s.Iters {
			args := []any{"span", path, "n", it.N, "residual", it.Residual}
			if it.Label != "" {
				args = append(args, "label", it.Label)
			}
			l.Debug("convergence", args...)
		}
	}
	if s.abandoned {
		return
	}
	// Each key appears once: the span's own attributes win over the
	// summary fields, and a later attribute over an earlier one.
	args := make([]any, 0, 2*len(s.Attrs)+8)
	args = append(args, "span", path)
	summary := func(key string, v any) {
		if _, set := s.Attr(key); !set {
			args = append(args, key, v)
		}
	}
	summary("wall_ms", float64(s.WallNS)/1e6)
	if n := len(s.Iters); n > 0 {
		summary("iterations", n)
		summary("last_residual", s.Iters[n-1].Residual)
	}
	for i, a := range s.Attrs {
		if !shadowed(s.Attrs, i) {
			args = append(args, a.Key, a.Value())
		}
	}
	l.Info("span", args...)
}

// shadowed reports whether a later attribute repeats the key of attrs[i].
func shadowed(attrs []Attr, i int) bool {
	for _, a := range attrs[i+1:] {
		if a.Key == attrs[i].Key {
			return true
		}
	}
	return false
}
