package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/reldash"
)

// serveSolveTimeout mirrors relcli serve's default -timeout, which the
// handler applies to every solve.
const serveSolveTimeout = 30 * time.Second

// traceServe turns the traced serve-mix run into per-layer figures: the
// server's own accounting over the untraced timed window, the generator's
// health, the ?trace=1 window's span trees, and an in-process replay of
// the timed window's documents through the handler's layers.
func traceServe(r *run, models []serveModel, plans []reqPlan, outs []reqOutcome, scrapes [3]scrape,
	from, to time.Duration, lat []float64, late float64, backlog int) error {
	a, b := scrapes[0], scrapes[1]
	solveRoute := `route="/solve"`
	solves := b.sum("relscope_http_request_seconds_count", solveRoute) - a.sum("relscope_http_request_seconds_count", solveRoute)
	handlerMS := (b.sum("relscope_http_request_seconds_sum", solveRoute) - a.sum("relscope_http_request_seconds_sum", solveRoute)) / solves * 1e3
	timed := slice(plans, outs, from, to)
	var wire []float64
	for i, p := range timed.plans {
		if !p.analyze {
			wire = append(wire, float64(timed.outs[i].done-timed.outs[i].sent)/1e6)
		}
	}
	r.set("relcli.handler_ms", handlerMS)
	r.set("relcli.wire_ms", mean(wire)-handlerMS)
	r.set("relcli.rejected", b.sum("relserve_rejected_total", "")-a.sum("relserve_rejected_total", ""))
	r.set("runtime.gc_per_kreq", (b.numGC-a.numGC)/(b.requests()-a.requests())*1e3)
	r.set("reldash.window_len", a.window)
	r.set("loadgen.late_ms", late)
	r.set("loadgen.backlog", float64(backlog))

	traced := slice(plans, outs, to, to+r.seconds)
	r.set("trace.overhead_ms", median(traced.latenciesMS(false))-median(lat))
	var points []float64
	for i, p := range traced.plans {
		if p.analyze || traced.outs[i].status != 200 {
			continue
		}
		n, err := iterPoints(traced.outs[i].body)
		r.op(err)
		if p.factor == 0 {
			// A verbatim document retains the same points every time.
			r.counter("obs.iter_points/"+models[p.doc].name, float64(n))
		}
		points = append(points, float64(n))
	}
	r.set("obs.iter_points", mean(points))
	return replayServe(r, timed)
}

// replayServe re-runs the timed window's /solve documents in-process, in
// the order the server received them, timing each layer the handler
// calls: parse, the solve under serve's recorder stack and without one,
// the trace-store record, the dashboard window (filled to the size one
// minute at the workload rate leaves it) and the response encoding.
func replayServe(r *run, w window) error {
	order := make([]int, 0, len(w.plans))
	for i, p := range w.plans {
		if !p.analyze {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return w.outs[order[x]].sent < w.outs[order[y]].sent })

	reg := metrics.NewRegistry()
	store := obs.NewTraceStore(256)
	for store.Len() < store.Cap() {
		store.Put(obs.TraceRecord{Model: "prefill", Endpoint: "solve"})
	}
	win := reldash.NewWindow(time.Minute)
	step := time.Duration(float64(time.Second) / r.serve.rate)
	clock := time.Unix(1e9, 0)
	for k := 0; k < int(r.serve.rate*win.Span().Seconds()); k++ {
		clock = clock.Add(step)
		win.RecordAt(clock, false)
	}

	t := newTracer()
	ctx := context.Background()
	for _, i := range order {
		body := w.plans[i].body
		req := t.begin("request")
		var spec *modelio.Spec
		var err error
		t.do("modelio.parse", func() { spec, err = modelio.Parse(bytes.NewReader(body)) })
		if err != nil {
			return err
		}
		name := spec.Name
		tr := obs.NewTrace(name)
		var results []modelio.Result
		t.do("modelio.solve", func() {
			results, err = modelio.SolveWithOptions(spec, modelio.SolveOptions{
				Recorder: obs.Multi(obs.NewMetricsRecorder(reg, name), tr),
				Context:  ctx, Timeout: serveSolveTimeout,
			})
		})
		r.op(err)
		t.do("modelio.solve_nop", func() {
			_, err = modelio.SolveWithOptions(spec, modelio.SolveOptions{Context: ctx, Timeout: serveSolveTimeout})
		})
		r.op(err)
		t.do("obs.store_put", func() { store.Put(obs.RecordFromTrace(tr, name, "solve")) })
		clock = clock.Add(step)
		t.do("reldash.window_record", func() { win.RecordAt(clock, false) })
		t.do("modelio.encode", func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(struct {
				Model   string           `json:"model,omitempty"`
				Results []modelio.Result `json:"results,omitempty"`
			}{name, results})
		})
		r.op(err)
		t.end(req)
	}
	ms, n := selfByName(t.spans)
	perReqUS := func(span string) float64 { return ms[span] * 1e3 / float64(n[span]) }
	for _, span := range []string{"modelio.parse", "modelio.solve", "modelio.solve_nop", "obs.store_put", "reldash.window_record", "modelio.encode"} {
		r.set(span+"_us", perReqUS(span))
	}
	r.set("obs.tax_us", perReqUS("modelio.solve")-perReqUS("modelio.solve_nop"))
	r.set("trace.unattributed_ms", perReqUS("request")/1e3)
	return nil
}
