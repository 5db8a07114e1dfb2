package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestSlogRecorderInfo checks span-completion events at Info level: one
// line per span with the dotted path, wall time, attributes, and folded
// iteration summary — but no per-iteration spam.
func TestSlogRecorderInfo(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	tr := NewTrace("farm")

	root := tr.Span("modelio.solve", S("model", "farm"))
	sor := root.Span("linalg.sor", S("solver", "sor"))
	sor.Iter(1, 0.5)
	sor.IterLabel(2, 0.01, "sweep")
	sor.End()
	root.End()
	LogSpans(logger, tr.Finish())

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 span events, got %d:\n%s", len(lines), buf.String())
	}
	var ev struct {
		Msg          string  `json:"msg"`
		Span         string  `json:"span"`
		WallMS       float64 `json:"wall_ms"`
		Iterations   int     `json:"iterations"`
		LastResidual float64 `json:"last_residual"`
		Solver       string  `json:"solver"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Msg != "span" || ev.Span != "modelio.solve.linalg.sor" {
		t.Errorf("inner event = %+v", ev)
	}
	if ev.Iterations != 2 || ev.LastResidual != 0.01 || ev.Solver != "sor" {
		t.Errorf("inner event missing solve facts: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Span != "modelio.solve" || ev.WallMS < 0 {
		t.Errorf("root event = %+v", ev)
	}
}

// TestSlogRecorderDebugIterations checks that a Debug-level handler also
// receives one structured convergence event per iteration.
func TestSlogRecorderDebugIterations(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTrace("m")
	sp := tr.Span("linalg.sor", S("solver", "sor"))
	sp.Iter(1, 0.5)
	sp.IterLabel(2, 0.25, "node-a")
	sp.End()
	LogSpans(logger, tr.Finish())

	out := buf.String()
	if got := strings.Count(out, "msg=convergence"); got != 2 {
		t.Errorf("want 2 convergence events, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "label=node-a") {
		t.Errorf("labeled iteration lost its label:\n%s", out)
	}
}

func TestSlogRecorderNilLogger(t *testing.T) {
	tr := NewTrace("m")
	sp := tr.Span("x")
	sp.End()
	LogSpans(nil, tr.Finish()) // must not panic with the default logger
}

// TestLogSpansKeysOnce checks a span event names each key once: the
// span's own attributes win over the iteration summary and a later
// attribute over an earlier one, and an abandoned span logs no event.
func TestLogSpansKeysOnce(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTrace("m")
	sor := tr.Span("linalg.sor", S("solver", "sor"))
	sor.Iter(1, 0.5)
	sor.Iter(2, 0.25)
	sor.Set(I("iterations", 2), S("solver", "sor-final"))
	sor.End()
	tr.Span("measure:mttf") // never ended: abandoned by Finish
	LogSpans(logger, tr.Finish())

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want one span event, got:\n%s", buf.String())
	}
	for _, key := range []string{`"iterations"`, `"solver"`, `"last_residual"`, `"wall_ms"`} {
		if got := strings.Count(line, key); got != 1 {
			t.Errorf("key %s appears %d times: %s", key, got, line)
		}
	}
	if !strings.Contains(line, `"solver":"sor-final"`) {
		t.Errorf("the later solver attribute lost: %s", line)
	}
}
