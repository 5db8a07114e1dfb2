package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
)

// rbdDegradable is an inline model whose reliability measure has a
// cut-set bounding path, so an open breaker can still answer it.
const rbdDegradable = `{"type":"rbd","name":"deg","rbd":{
	"components":[
		{"name":"a","lifetime":{"kind":"exponential","rate":0.001}},
		{"name":"b","lifetime":{"kind":"exponential","rate":0.001}}],
	"structure":{"op":"parallel","children":[{"comp":"a"},{"comp":"b"}]},
	"measures":["reliability"],"time":100}}`

// ctmcPlain is an inline CTMC — a model class with no bounds-only path.
const ctmcPlain = `{"type":"ctmc","name":"pair","ctmc":{
	"transitions":[{"from":"up","to":"down","rate":1},{"from":"down","to":"up","rate":10}],
	"upStates":["up"],"measures":["availability"]}}`

func postJSON(t *testing.T, h http.Handler, doc string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(doc))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeSolve(t *testing.T, w *httptest.ResponseRecorder) solveResponse {
	t.Helper()
	var resp solveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

// TestAdmissionVerdicts unit-tests the two-stage admission controller:
// slots, then a bounded queue, then shedding.
func TestAdmissionVerdicts(t *testing.T) {
	a := newAdmission(1, 1, 30*time.Millisecond)

	release, v := a.acquire(context.Background())
	if v != admitOK || release == nil {
		t.Fatalf("first acquire: verdict %d", v)
	}

	// Slot held: the next request queues and times out.
	start := time.Now()
	if _, v := a.acquire(context.Background()); v != admitTimeout {
		t.Fatalf("queued acquire: verdict %d, want admitTimeout", v)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("timeout verdict returned before the wait budget elapsed")
	}

	// Queue occupied by a waiter: a third concurrent request is shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = a.acquire(context.Background()) // occupies the queue slot
	}()
	deadline := time.Now().Add(time.Second)
	for a.queueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, v := a.acquire(context.Background()); v != admitShed {
		t.Errorf("overflow acquire: verdict %d, want admitShed", v)
	}
	wg.Wait()

	// A canceled client while queued is its own verdict.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a2 := newAdmission(1, 1, time.Minute)
	rel2, _ := a2.acquire(context.Background())
	defer rel2()
	if _, v := a2.acquire(ctx); v != admitCanceled {
		t.Errorf("canceled acquire: verdict %d, want admitCanceled", v)
	}

	release()
	rel3, v := a.acquire(context.Background())
	if v != admitOK {
		t.Fatalf("post-release acquire: verdict %d", v)
	}
	rel3()
}

// TestServe429vs503vs504 drives the full handler stack through every
// rejection distinction: 429 load shed (queue full), 503 capacity
// timeout (queued too long), and 504 solve deadline — each with a
// Retry-After header, a typed code, and the model hash (satellite:
// concurrency-limit error contract).
func TestServe429vs503vs504(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	// The first request's first SOR sweep stalls 2s, pinning the single
	// solve slot while the later requests probe the admission layer.
	if err := failpoint.Arm("linalg.sor.sweep", "times(1)->delay(2s)"); err != nil {
		t.Fatal(err)
	}
	mux := mustServeMux(t, serveConfig{
		Registry:    metrics.NewRegistry(),
		MaxInflight: 1, QueueDepth: 1, QueueWait: 600 * time.Millisecond,
	})

	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, 3)
	launch := func(i int, delay time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			results[i] = postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
		}()
	}
	launch(0, 0)                    // holds the slot ~2s
	launch(1, 300*time.Millisecond) // queues, times out at ~900ms -> 503
	launch(2, 600*time.Millisecond) // queue full -> 429 immediately
	wg.Wait()

	if results[0].Code != http.StatusOK {
		t.Errorf("slot-holding request: status %d: %s", results[0].Code, results[0].Body.String())
	}
	timedOut := decodeSolve(t, results[1])
	if results[1].Code != http.StatusServiceUnavailable || timedOut.Code != "capacity-timeout" {
		t.Errorf("queued request: status %d code %q, want 503 capacity-timeout", results[1].Code, timedOut.Code)
	}
	shed := decodeSolve(t, results[2])
	if results[2].Code != http.StatusTooManyRequests || shed.Code != "shed" {
		t.Errorf("overflow request: status %d code %q, want 429 shed", results[2].Code, shed.Code)
	}
	for i := 1; i <= 2; i++ {
		resp := decodeSolve(t, results[i])
		if results[i].Header().Get("Retry-After") == "" {
			t.Errorf("request %d: missing Retry-After header", i)
		}
		if resp.ModelHash == "" {
			t.Errorf("request %d: missing model_hash in error body", i)
		}
	}

	// 504: the deadline distinction, same contract.
	failpoint.Reset()
	mux = mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), SolveTimeout: time.Nanosecond})
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	resp := decodeSolve(t, w)
	if w.Code != http.StatusGatewayTimeout || resp.Code != "deadline" || resp.ModelHash == "" {
		t.Errorf("deadline request: status %d code %q hash %q, want 504 deadline <hash>",
			w.Code, resp.Code, resp.ModelHash)
	}
}

// TestServeDrainingHealthz: once graceful shutdown flips the draining
// flag, /healthz answers 503 "draining" and new solves are refused
// with the draining code (satellite: drain visibility).
func TestServeDrainingHealthz(t *testing.T) {
	s, mux, err := newSolveServer(serveConfig{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s.draining.Store(true)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", w.Code)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz status %q, want draining", h.Status)
	}

	sw := postJSON(t, mux, rbdDegradable)
	resp := decodeSolve(t, sw)
	if sw.Code != http.StatusServiceUnavailable || resp.Code != "draining" {
		t.Errorf("solve during drain: status %d code %q, want 503 draining", sw.Code, resp.Code)
	}
}

// TestServeBreakerDegraded: consecutive injected solver failures open
// the rbd breaker, after which requests get 200 degraded bounds-only
// answers with certified intervals instead of 500s.
func TestServeBreakerDegraded(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, mux, err := newSolveServer(serveConfig{
		Registry:         metrics.NewRegistry(),
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("modelio.build", "error(solver wrecked)"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		w := postJSON(t, mux, rbdDegradable)
		resp := decodeSolve(t, w)
		if w.Code != http.StatusInternalServerError || resp.Code != "injected" {
			t.Fatalf("request %d: status %d code %q, want 500 injected", i, w.Code, resp.Code)
		}
	}

	w := postJSON(t, mux, rbdDegradable)
	resp := decodeSolve(t, w)
	if w.Code != http.StatusOK || !resp.Degraded {
		t.Fatalf("breaker-open request: status %d degraded=%v: %s", w.Code, resp.Degraded, w.Body.String())
	}
	if len(resp.Results) != 1 || resp.Results[0].Bound == nil {
		t.Fatalf("degraded results missing bound: %s", w.Body.String())
	}
	b := resp.Results[0].Bound
	if b.Lower < 0 || b.Upper > 1 || b.Lower > b.Upper {
		t.Errorf("degraded bound [%g, %g] malformed", b.Lower, b.Upper)
	}
	if got := s.resilience(); got.Breakers["rbd"] != "open" || got.Degraded != 1 {
		t.Errorf("resilience snapshot = %+v, want rbd open with one degraded answer", got)
	}
}

// TestServeBreakerOpenNoBoundsThenRecloses: a CTMC has no bounding
// path, so its open breaker answers 503 breaker-open; once the fault is
// cleared and the cooldown elapses, the half-open probe closes the
// breaker again.
func TestServeBreakerOpenNoBoundsThenRecloses(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	s, mux, err := newSolveServer(serveConfig{
		Registry:         metrics.NewRegistry(),
		BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("modelio.build", "error"); err != nil {
		t.Fatal(err)
	}

	w := postJSON(t, mux, ctmcPlain)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("faulted solve: status %d, want 500", w.Code)
	}
	w = postJSON(t, mux, ctmcPlain)
	resp := decodeSolve(t, w)
	if w.Code != http.StatusServiceUnavailable || resp.Code != "breaker-open" {
		t.Fatalf("open breaker: status %d code %q, want 503 breaker-open", w.Code, resp.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker-open reply missing Retry-After")
	}

	failpoint.Reset()
	time.Sleep(60 * time.Millisecond)
	w = postJSON(t, mux, ctmcPlain)
	if w.Code != http.StatusOK {
		t.Fatalf("half-open probe: status %d: %s", w.Code, w.Body.String())
	}
	if st := s.brk.snapshot(); st["ctmc"] != "" {
		t.Errorf("breaker state after successful probe = %q, want closed (omitted)", st["ctmc"])
	}
}

// TestServePanicIsolation: an injected panic inside the request path is
// converted to a typed 500 and the server keeps answering.
func TestServePanicIsolation(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	if err := failpoint.Arm("modelio.parse", "times(1)->panic(parser detonated)"); err != nil {
		t.Fatal(err)
	}

	w := postJSON(t, mux, rbdDegradable)
	resp := decodeSolve(t, w)
	if w.Code != http.StatusInternalServerError || resp.Code != "internal" {
		t.Fatalf("panicking request: status %d code %q, want 500 internal", w.Code, resp.Code)
	}
	if !strings.Contains(resp.Error, "parser detonated") {
		t.Errorf("error body lost the panic payload: %q", resp.Error)
	}

	// The next request must succeed: the panic was isolated per-request.
	w = postJSON(t, mux, rbdDegradable)
	if w.Code != http.StatusOK {
		t.Errorf("request after panic: status %d: %s", w.Code, w.Body.String())
	}
}

// TestServePanicCountedOnce: a request whose handler panics is one
// request with status 500 everywhere it is counted — the solve counter,
// the SLO engine, the dashboard window and the wide-event log — and
// never also a 200 (regression: the handler's own accounting used to
// run during the unwind and count it as a success first).
func TestServePanicCountedOnce(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	var wide bytes.Buffer
	reg := metrics.NewRegistry()
	s, mux, err := newSolveServer(serveConfig{Registry: reg, WideWriter: &wide, WideSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("modelio.parse", "times(1)->panic(parser detonated)"); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, mux, rbdDegradable); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", w.Code)
	}

	mw := httptest.NewRecorder()
	mux.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp := mw.Body.String()
	for _, want := range []string{
		`relscope_solve_requests_total{code="500"} 1` + "\n",
		`relslo_events_total{objective="solve-availability",verdict="bad"} 1` + "\n",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, unwanted := range []string{
		`relscope_solve_requests_total{code="200"}`,
		`relslo_events_total{objective="solve-availability",verdict="good"}`,
	} {
		if strings.Contains(exp, unwanted) {
			t.Errorf("/metrics counts the panicking request as a success: %q present", unwanted)
		}
	}
	if good, bad := s.win.Totals(); good != 0 || bad != 1 {
		t.Errorf("window totals = %d good, %d bad, want 0, 1", good, bad)
	}
	lines := strings.Split(strings.TrimSpace(wide.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"status":500`) || !strings.Contains(lines[0], `"code":"internal"`) {
		t.Errorf("want one wide line with status 500, got:\n%s", wide.String())
	}
}

// TestServeStorePanicDoesNotFailSolve: a panicking trace store loses
// the record, never the response — on /solve and /analyze alike.
func TestServeStorePanicDoesNotFailSolve(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry()})
	if err := failpoint.Arm("obs.store.put", "panic(store detonated)"); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, mux, rbdDegradable)
	if w.Code != http.StatusOK {
		t.Errorf("solve with panicking store: status %d: %s", w.Code, w.Body.String())
	}
	for model, want := range map[string]int{
		"absorbing.json":     http.StatusOK,
		"broken_rowsum.json": http.StatusUnprocessableEntity,
	} {
		body, err := os.ReadFile(filepath.Join("..", "..", "models", model))
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if w.Code != want {
			t.Errorf("analyze %s with panicking store: status %d, want %d: %s", model, w.Code, want, w.Body.String())
		}
	}
}

// TestServeOversizeBody: a body past MaxBody is a client error (400
// too-large), never a 500.
func TestServeOversizeBody(t *testing.T) {
	mux := mustServeMux(t, serveConfig{Registry: metrics.NewRegistry(), MaxBody: 64})
	big := bytes.Repeat([]byte("x"), 128)
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(big))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	resp := decodeSolve(t, w)
	if w.Code != http.StatusBadRequest || resp.Code != "too-large" {
		t.Errorf("oversize body: status %d code %q, want 400 too-large", w.Code, resp.Code)
	}
}

// TestRetryAfterSecsColdHistogram: before any solve completes the p95
// quantile is NaN; the Retry-After derivation must answer the
// configured floor, never 0 or a NaN-coerced garbage value
// (regression: a cold histogram used to produce Retry-After: 0,
// which RFC 9110 clients read as "retry immediately" — exactly wrong
// while the server is saturated).
func TestRetryAfterSecsColdHistogram(t *testing.T) {
	cases := []struct {
		name     string
		p95      float64
		queueLen int
		floor    int
		want     int
	}{
		{"cold histogram NaN", math.NaN(), 0, 1, 1},
		{"cold histogram NaN with floor", math.NaN(), 5, 3, 3},
		{"zero p95", 0, 2, 2, 2},
		{"negative p95", -1, 0, 1, 1},
		{"warm below floor", 0.1, 0, 4, 4},
		{"warm above floor", 2.5, 1, 1, 5}, // ceil(2.5*2)
		{"clamped to 60", 30, 9, 1, 60},
		{"floor below 1 coerced", math.NaN(), 0, 0, 1},
		{"floor above 60 clamped", math.NaN(), 0, 120, 60},
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.p95, tc.queueLen, tc.floor); got != tc.want {
			t.Errorf("%s: retryAfterSecs(%g, %d, %d) = %d, want %d",
				tc.name, tc.p95, tc.queueLen, tc.floor, got, tc.want)
		}
	}
}

// TestServeColdRejectRetryAfterFloor drives the integration path: a
// capacity rejection on a server that has never completed a solve
// (cold latency histogram) carries the configured Retry-After floor.
func TestServeColdRejectRetryAfterFloor(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Arm("linalg.sor.sweep", "times(1)->delay(2s)"); err != nil {
		t.Fatal(err)
	}
	mux := mustServeMux(t, serveConfig{
		Registry:    metrics.NewRegistry(),
		MaxInflight: 1, QueueDepth: 1, QueueWait: 100 * time.Millisecond,
		RetryFloor: 7,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	first := make(chan struct{})
	go func() {
		defer wg.Done()
		close(first)
		postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	}()
	<-first
	time.Sleep(300 * time.Millisecond) // let the slot-holder start solving
	w := postModel(t, mux, filepath.Join("..", "..", "models", "repairfarm.json"), "")
	wg.Wait()
	if w.Code != http.StatusServiceUnavailable && w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 503 or 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Errorf("cold-histogram rejection Retry-After = %q, want \"7\" (the floor)", got)
	}
}
