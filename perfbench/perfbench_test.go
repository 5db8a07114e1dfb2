package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	cases := []struct {
		xs     []float64
		p      float64
		want   float64
		wantOK bool
	}{
		{hundred, 50, 50, true},
		{hundred, 90, 90, true},   // exactly ten samples beyond
		{hundred, 91, 91, false},  // nine beyond: not reportable
		{hundred, 99, 99, false},  // one beyond
		{thousand, 99, 990, true}, // ten beyond
		{thousand, 99.9, 999, false},
		{[]float64{7}, 50, 7, true},
		{hundred, 0.5, 1, true},
	}
	for _, c := range cases {
		got, ok := percentile(c.xs, c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", len(c.xs), c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if _, ok := percentile(hundred, 0); ok {
		t.Error("percentile p=0 reported ok")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{Name: "d", Parent: 1, Start: 12 * ms, End: 18 * ms},  // grandchild: only a's
	}
	want := []time.Duration{50 * ms, 14 * ms, 30 * ms, 30 * ms, 6 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	byName, n := selfByName(append(spans, span{Name: "d", Parent: 1, Start: 20 * ms, End: 21 * ms}))
	if n["d"] != 2 || math.Abs(byName["d"]-7) > 1e-9 {
		t.Errorf("selfByName d = %g ms over %d spans, want 7 ms over 2", byName["d"], n["d"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	tr.do("inner", func() { time.Sleep(time.Millisecond) })
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if self := selfTimes(tr.spans); self[0] > tr.spans[0].End-tr.spans[0].Start-time.Millisecond {
		t.Errorf("outer self time %v does not exclude the 1ms child", self[0])
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validMetricName reports whether name is a legal metric name: a letter
// or digit first, then letters, digits, '_', '.' and '-', 64 at most.
func validMetricName(name string) bool {
	if len(name) == 0 || len(name) > 64 || !metricNameRE.MatchString(name) {
		return false
	}
	c := name[0]
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// TestCPUClocksAgree burns CPU and checks that the process's own clock
// (getrusage) and the /proc reading the server's CPU comes from both see
// it, within the /proc clock tick.
func TestCPUClocksAgree(t *testing.T) {
	self0, err := selfCPU()
	if err != nil {
		t.Fatal(err)
	}
	proc0, err := pidCPU(os.Getpid())
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	self1, _ := selfCPU()
	proc1, err := pidCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	dSelf, dProc := self1-self0, proc1-proc0
	if dSelf < 100*time.Millisecond || x < 1 {
		t.Fatalf("getrusage saw %v of a 200 ms busy loop", dSelf)
	}
	if diff := dSelf - dProc; diff < -3*clockTick || diff > 3*clockTick {
		t.Errorf("getrusage %v, /proc/<pid>/stat %v", dSelf, dProc)
	}
}

// TestGeneratorHealthCountsOnlyOwnLateness checks that waiting for a
// busy connection is not counted against the generator, while a request
// it could have sent before the schedule ended but did not is.
func TestGeneratorHealthCountsOnlyOwnLateness(t *testing.T) {
	ms := time.Millisecond
	var w window
	// 200 requests due every 1 ms, each sent 0.1 ms after it was ready.
	for i := 0; i < 200; i++ {
		due := time.Duration(i) * ms
		w.plans = append(w.plans, reqPlan{due: due})
		w.outs = append(w.outs, reqOutcome{free: due, sent: due + ms/10})
	}
	// The last five waited 40 ms for a connection and went out after the
	// end: server latency, not the generator falling behind.
	end := 200 * ms
	for i := 195; i < 200; i++ {
		w.outs[i].free = w.plans[i].due + 40*ms
		w.outs[i].sent = w.outs[i].free + ms/10
	}
	r := &run{log: io.Discard, out: io.Discard, counters: map[string]float64{}, metrics: map[string]float64{}}
	late, backlog := generatorHealth(r, w, end)
	if backlog != 0 || late > 0.2 || r.failed != 0 {
		t.Fatalf("connection wait counted: late %g ms, backlog %d, failed %d", late, backlog, r.failed)
	}
	// Now three of them were ready in time but sent after the end.
	for i := 195; i < 198; i++ {
		w.outs[i].free = w.plans[i].due
	}
	if _, backlog = generatorHealth(r, w, end); backlog != 3 || r.failed != 1 {
		t.Fatalf("own backlog %d, failed %d; want 3 and 1", backlog, r.failed)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"p50_ms", "relcli.handler_ms", "a", "0x", "obs.tax_us", "trace.overhead-ms"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", "p50{ms}", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.Name) || seen[d.Name] {
			t.Errorf("metric %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if len(d.Unit) == 0 || len(d.Unit) > 16 || strings.Trim(d.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("metric %q has bad unit %q", d.Name, d.Unit)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// benchmark definition in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, tables %d/%d", len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range def.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, m, perLayer[i])
		}
	}
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestOracles(t *testing.T) {
	// Poisson-binomial DP against brute-force enumeration.
	p := []float64{0.1, 0.5, 0.3, 0.9, 0.25}
	for k := 0; k <= len(p); k++ {
		var brute float64
		for mask := 0; mask < 1<<len(p); mask++ {
			pr, c := 1.0, 0
			for i, pi := range p {
				if mask&(1<<i) != 0 {
					pr *= pi
					c++
				} else {
					pr *= 1 - pi
				}
			}
			if c >= k {
				brute += pr
			}
		}
		if got := atLeastProb(p, k); math.Abs(got-brute) > 1e-15 {
			t.Errorf("atLeastProb(k=%d) = %g, brute force %g", k, got, brute)
		}
	}
	var sum, meanQ float64
	for i, x := range birthDeathPi(50, 0.9) {
		sum += x
		meanQ += float64(i) * x
	}
	if math.Abs(sum-1) > 1e-12 || math.Abs(meanQ-mm1kMeanQueue(49, 0.9)) > 1e-12 {
		t.Errorf("birth-death π sums to %g, mean %g vs M/M/1/K %g", sum, meanQ, mm1kMeanQueue(49, 0.9))
	}
	if d := twoStateDown(1, 3, 1e9); math.Abs(d-0.25) > 1e-15 {
		t.Errorf("two-state limit = %g, want 0.25", d)
	}
	if z := normalQuantile(0.975); math.Abs(z-1.959963984540054) > 1e-9 {
		t.Errorf("Φ⁻¹(0.975) = %.12g", z)
	}
	pi, err := gthReference(2, []triple{{0, 1, 1}, {1, 0, 3}})
	if err != nil || math.Abs(pi[0]-0.75) > 1e-15 || residualInf(pi, []triple{{0, 1, 1}, {1, 0, 3}}) > 1e-15 {
		t.Errorf("GTH reference of a two-state chain = %v, %v", pi, err)
	}
}

func TestPerturbKeepsStructure(t *testing.T) {
	in := []byte(`{"type":"x","a":{"rate":2,"prob":0.5,"rel":0.9,"k":3},"b":[{"rate":1},{"prob":0.95}]}`)
	out, err := perturb(in, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	a := got["a"].(map[string]any)
	b := got["b"].([]any)
	if a["rate"] != 2.2 || a["prob"] != 0.55 || math.Abs(a["rel"].(float64)-0.89) > 1e-12 || a["k"] != 3.0 ||
		b[0].(map[string]any)["rate"] != 1.1 || b[1].(map[string]any)["prob"] != 0.95 {
		t.Errorf("perturb gave %s", out)
	}
}

func TestScheduleDealsTheMixInBlocks(t *testing.T) {
	plans := schedule(7, 10, 400, 10*time.Second)
	if len(plans) < 3500 || len(plans) > 4500 {
		t.Fatalf("%d requests in 10s at 400/s", len(plans))
	}
	for b := 0; b+10 <= len(plans); b += 10 {
		docs, analyze, verbatim := map[int]bool{}, 0, 0
		for _, p := range plans[b : b+10] {
			docs[p.doc] = true
			if p.analyze {
				analyze++
			}
			if p.factor == 0 {
				verbatim++
			}
		}
		if len(docs) != 10 || analyze != 1 || verbatim != 4 {
			t.Fatalf("block at %d: %d docs, %d analyze, %d verbatim", b, len(docs), analyze, verbatim)
		}
	}
	again := schedule(7, 10, 400, 10*time.Second)
	a, b := again[len(again)-1], plans[len(plans)-1]
	if len(again) != len(plans) || a.due != b.due || a.doc != b.doc || a.factor != b.factor || a.analyze != b.analyze {
		t.Error("schedule is not a function of its seed")
	}
}

// smokeRun is a tiny configuration of one workload.
func smokeRun(t *testing.T, workload string, trace bool) *run {
	t.Helper()
	return &run{
		seed: 3, seconds: time.Second, trace: trace, root: "..", scratch: t.TempDir(),
		log: testLog{t}, out: io.Discard,
		serve: serveShape{rate: 100, warm: 500 * time.Millisecond},
		large: largeShape{sharedRepairComps: 4, birthDeathStates: 64, kofnEvents: 12, kofnK: 6,
			stiffComps: 3, stiffTerms: 200, spnComps: 4},
		sweep:    sweepShape{samples: 1000, shardSize: 250},
		counters: map[string]float64{}, metrics: map[string]float64{},
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func checkSmoke(t *testing.T, r *run) {
	t.Helper()
	rep, err := r.report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("smoke run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %g", name, m.Value)
		}
	}
	if !r.trace {
		for _, d := range endToEnd {
			if !(rep.Metrics[d.Name].Value > 0) {
				t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, rep.Metrics[d.Name].Value)
			}
		}
	}
}

func TestSmokeSolveLarge(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := smokeRun(t, "solve-large", trace)
		if err := runSolveLarge(r); err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, r)
	}
}

func TestSmokeSweepDurable(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := smokeRun(t, "sweep-durable", trace)
		if err := runSweepDurable(r); err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, r)
		if trace && !(r.metrics["jobs.wal_bytes"] > 0) {
			t.Error("traced sweep reported no checkpoint bytes")
		}
	}
}

func TestSmokeServeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns relcli")
	}
	bin := filepath.Join(t.TempDir(), "relcli")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/relcli")
	var stderr bytes.Buffer
	build.Stderr = &stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build relcli: %v\n%s", err, stderr.Bytes())
	}
	for _, trace := range []bool{false, true} {
		r := smokeRun(t, "serve-mix", trace)
		r.relcli = bin
		root, err := filepath.Abs("..")
		if err != nil {
			t.Fatal(err)
		}
		r.root = root
		if err := runServeMix(r); err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, r)
		if trace && !(r.metrics["relcli.handler_ms"] > 0 && r.metrics["modelio.solve_us"] > 0) {
			t.Errorf("traced serve-mix lacks layer times: %v", r.metrics)
		}
	}
}

// mm1kMeanQueue returns the M/M/1/K mean number in system at load rho:
// Σ n ρ^n / Σ ρ^n over n = 0..k.
func mm1kMeanQueue(k int, rho float64) float64 {
	var norm, weighted float64
	for n := 0; n <= k; n++ {
		w := math.Pow(rho, float64(n))
		norm += w
		weighted += float64(n) * w
	}
	return weighted / norm
}
