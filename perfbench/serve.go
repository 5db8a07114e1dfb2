package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lint"
	"repro/internal/modelio"
)

// serveShape fixes the serve-mix traffic. The rate is never
// recalibrated to the machine, so a slower server shows as latency and
// lost goodput rather than as a lower offered load.
type serveShape struct {
	rate float64       // open-loop arrivals per second
	warm time.Duration // traffic before the timed window
}

// fullServe warms for one reldash window (one minute) plus margin, so
// the timed window sees every bounded per-request structure full.
//
// The rate is a quarter of the closed-loop capacity measured once on
// the two-core machine the benchmark was written on (2 clients, once
// the dashboard window had filled: 1.2–1.9k requests/s). At that load
// latency is service time rather than queueing, and bursts of stolen
// CPU do not push the generator behind. The server's CPU time per
// request (cpu_ms_per_op) carries a cost change at any headroom;
// goodput falls only once a request's cost nears the arrival gap.
var fullServe = serveShape{rate: 400, warm: 62 * time.Second}

// The mix shares are assumptions: there is no record of what clients
// send `relcli serve`. /analyze is kept a minority, as a dashboard
// would call it beside many solves; the verbatim share is large enough for a parse cache to pay and small
// enough that most parses stay real.
const (
	serveSenders  = 2                      // sender goroutines, one connection each
	serveAnalyze  = 0.1                    // share of requests to POST /analyze
	serveVerbatim = 0.4                    // share of documents sent byte for byte
	servePerturb  = 0.1                    // perturbed rates scale by 1 ± up to this
	serveLimit    = 25 * time.Millisecond  // latency limit for goodput
	serveBoot     = 30 * time.Second       // longest wait for /healthz
	serveStop     = 10 * time.Second       // longest wait for a drained exit
	servePoll     = 200 * time.Microsecond // /healthz poll interval; a boot takes a few ms
	// serveSetupRepeats is how many servers boot; setup_s is the median.
	// A boot takes a few milliseconds, and process start-up is noisy at
	// that scale.
	serveSetupRepeats = 21
	// serveSetupGap idles the machine before each boot, so every boot
	// starts cold, as a server start does. Back to back, each boot found
	// the CPUs warm from the last: over eight rounds, medians of 31 such
	// boots ranged from 2.9 to 3.9 ms (15% spread), medians of 21 spaced
	// ones from 4.9 to 5.9 ms (6%).
	serveSetupGap = 250 * time.Millisecond
)

// serveModel is one bundled model document.
type serveModel struct {
	name string
	body []byte
}

// loadServeModels reads models/*.json and keeps the documents the linter
// accepts: the bundled fixture that is ill-formed on purpose is not a
// solve request anyone would send.
func loadServeModels(root string) ([]serveModel, error) {
	paths, err := filepath.Glob(filepath.Join(root, "models", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []serveModel
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if _, ds := modelio.LintDocument(bytes.NewReader(body)); lint.HasErrors(ds) {
			continue
		}
		out = append(out, serveModel{name: filepath.Base(p), body: body})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no solvable models under %s", filepath.Join(root, "models"))
	}
	return out, nil
}

// reqPlan is one scheduled request.
type reqPlan struct {
	due     time.Duration // offset from the schedule start
	analyze bool
	doc     int
	factor  float64 // rate scale for a perturbed document; 0 sends it verbatim
	traced  bool    // ask for the span tree (?trace=1)
	body    []byte  // the document sent, filled by fillBodies
}

// reqOutcome is what the sender saw.
type reqOutcome struct {
	// Offsets from the schedule start: when the sender was free to take
	// the request (its previous reply was in), sent it, and had the reply.
	free, sent, done time.Duration
	status           int
	body             []byte
	err              error
}

// schedule draws Poisson arrivals at rate over total. The mix is dealt
// in blocks of nModels requests: each block sends every model once, in
// a seeded order, with fixed numbers of /analyze and verbatim requests
// at seeded positions. The seed moves requests around but never changes
// the mix, so runs at different seeds do the same work.
func schedule(seed uint64, nModels int, rate float64, total time.Duration) []reqPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	nAnalyze := int(math.Round(serveAnalyze * float64(nModels)))
	nVerbatim := int(math.Round(serveVerbatim * float64(nModels)))
	var out []reqPlan
	var t float64
	for {
		docs, analyze, verbatim := rng.Perm(nModels), rng.Perm(nModels), rng.Perm(nModels)
		for k := 0; k < nModels; k++ {
			t += rng.ExpFloat64() / rate
			due := time.Duration(t * float64(time.Second))
			if due >= total {
				return out
			}
			p := reqPlan{due: due, doc: docs[k], analyze: analyze[k] < nAnalyze}
			if verbatim[k] >= nVerbatim {
				p.factor = 1 + servePerturb*(2*rng.Float64()-1)
			}
			out = append(out, p)
		}
	}
}

// perturb rescales a document's rates by f: every "rate" field, every
// "prob" that stays below 1, and the unreliability 1-rel of every "rel".
// The structure is untouched, so the perturbed document takes the same
// solver path with different numbers and different bytes.
func perturb(body []byte, f float64) ([]byte, error) {
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	var walk func(any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				num, ok := child.(float64)
				switch {
				case ok && k == "rate":
					x[k] = num * f
				case ok && k == "prob" && num*f < 1:
					x[k] = num * f
				case ok && k == "rel":
					x[k] = 1 - (1-num)*f
				default:
					walk(child)
				}
			}
		case []any:
			for _, child := range x {
				walk(child)
			}
		}
	}
	walk(doc)
	return json.Marshal(doc)
}

// fillBodies builds every plan's document before the traffic starts, so
// the senders do no encoding between due times.
func fillBodies(models []serveModel, plans []reqPlan) error {
	for i := range plans {
		p := &plans[i]
		if p.factor == 0 {
			p.body = models[p.doc].body
			continue
		}
		var err error
		if p.body, err = perturb(models[p.doc].body, p.factor); err != nil {
			return err
		}
	}
	return nil
}

// server is one running `relcli serve`.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

var addrRE = regexp.MustCompile(`serving on (http://[^ ]+)`)

// addrWriter captures the server's stdout and hands over the bound
// address from its first line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := addrRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

// startServer spawns relcli serve with its default flags (apart from an
// ephemeral port) and returns once /healthz answers 200, with the time
// that took.
func startServer(r *run) (*server, time.Duration, error) {
	if r.relcli == "" {
		return nil, 0, fmt.Errorf("serve-mix needs -relcli")
	}
	out := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(r.relcli, "serve", "-addr", "127.0.0.1:0")
	cmd.Dir = r.root
	cmd.Stdout = out
	cmd.Stderr = r.log
	// The server must not outlive the benchmark, even one killed hard.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.NewTimer(serveBoot)
	defer deadline.Stop()
	select {
	case s.base = <-out.addr:
	case err := <-s.done:
		return nil, 0, fmt.Errorf("relcli serve exited before listening: %v", err)
	case <-deadline.C:
		s.kill()
		return nil, 0, fmt.Errorf("relcli serve printed no address within %v", serveBoot)
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > serveBoot {
			s.kill()
			return nil, 0, fmt.Errorf("relcli serve /healthz not ready within %v", serveBoot)
		}
		sleepUntil(time.Now().Add(servePoll))
	}
}

// stop sends SIGTERM and waits for the drained exit, killing the server
// if it outlives serveStop.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(serveStop):
		s.kill()
		return fmt.Errorf("relcli serve did not exit within %v of SIGTERM", serveStop)
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// scrape is the server's own accounting at one instant.
type scrape struct {
	prom   map[string]float64 // series "name{labels}" → value
	malloc float64
	numGC  float64
	heap   float64
	window float64 // reldash window occupancy
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

func (s *server) scrape() (scrape, error) {
	var sc scrape
	text, err := s.get("/metrics")
	if err != nil {
		return sc, err
	}
	sc.prom = parseProm(text)
	vars, err := s.get("/debug/vars")
	if err != nil {
		return sc, err
	}
	var v struct {
		Memstats struct {
			Mallocs, NumGC, HeapAlloc float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return sc, err
	}
	sc.malloc, sc.numGC, sc.heap = v.Memstats.Mallocs, v.Memstats.NumGC, v.Memstats.HeapAlloc
	sum, err := s.get("/api/summary")
	if err != nil {
		return sc, err
	}
	var w struct {
		Requests float64 `json:"requests"`
	}
	err = json.Unmarshal(sum, &w)
	sc.window = w.Requests
	return sc, err
}

// parseProm reads the Prometheus text exposition into series → value.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of family name whose labels contain match.
func (sc scrape) sum(name, match string) float64 {
	var total float64
	for k, v := range sc.prom {
		fam := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			fam = k[:i]
		}
		if fam == name && strings.Contains(k, match) {
			total += v
		}
	}
	return total
}

// requests is how many /solve and /analyze requests the server timed.
func (sc scrape) requests() float64 {
	return sc.sum("relscope_http_request_seconds_count", `route="/solve"`) +
		sc.sum("relscope_http_request_seconds_count", `route="/analyze"`)
}

// drive sends plans open-loop from serveSenders goroutines, each with
// one keep-alive connection. at runs on the calling goroutine at the
// given schedule offsets (for scrapes), in order.
func drive(s *server, plans []reqPlan, at []time.Duration, fn func(int)) []reqOutcome {
	outs := make([]reqOutcome, len(plans))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serveSenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plans) {
					return
				}
				outs[i] = send(client, s.base, plans[i], start)
			}
		}()
	}
	for k, off := range at {
		time.Sleep(time.Until(start.Add(off)))
		fn(k)
	}
	wg.Wait()
	return outs
}

// send waits until the plan is due and posts it.
func send(client *http.Client, base string, p reqPlan, start time.Time) reqOutcome {
	free := time.Since(start)
	sleepUntil(start.Add(p.due))
	url := base + "/solve"
	if p.analyze {
		url = base + "/analyze"
	}
	if p.traced {
		url += "?trace=1"
	}
	o := reqOutcome{free: free, sent: time.Since(start)}
	resp, err := client.Post(url, "application/json", bytes.NewReader(p.body))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Since(start)
	o.err = err
	return o
}

// sleepUntil blocks the calling thread in the kernel until t. On an
// otherwise idle scheduler time.Sleep wakes on the network poller's
// millisecond tick, which would add up to a millisecond of generator
// lateness to requests that take about one; nanosleep wakes within the
// kernel's timer slack instead.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// window is the requests due in [from, to) with their outcomes.
type window struct {
	plans []reqPlan
	outs  []reqOutcome
}

func (w window) latenciesMS(fromSend bool) []float64 {
	var out []float64
	for i, o := range w.outs {
		from := w.plans[i].due
		if fromSend {
			from = o.sent
		}
		out = append(out, float64(o.done-from)/1e6)
	}
	sort.Float64s(out)
	return out
}

func slice(plans []reqPlan, outs []reqOutcome, from, to time.Duration) window {
	var w window
	for i, p := range plans {
		if p.due >= from && p.due < to {
			w.plans = append(w.plans, p)
			w.outs = append(w.outs, outs[i])
		}
	}
	return w
}

// runServeMix drives the real relcli serve binary.
func runServeMix(r *run) error {
	models, err := loadServeModels(r.root)
	if err != nil {
		return err
	}
	var setups []float64
	var srv *server
	for i := 0; i < serveSetupRepeats; i++ {
		time.Sleep(serveSetupGap)
		s, took, err := startServer(r)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < serveSetupRepeats-1 {
			if err := s.stop(); err != nil {
				return err
			}
		} else {
			srv = s
		}
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	timedFrom, timedTo := r.serve.warm, r.serve.warm+r.seconds
	total := timedTo
	if r.trace {
		total += r.seconds // a second window with ?trace=1
	}
	plans := schedule(r.seed, len(models), r.serve.rate, total)
	for i := range plans {
		plans[i].traced = plans[i].due >= timedTo
	}
	if err := fillBodies(models, plans); err != nil {
		return err
	}
	var scrapes [3]scrape
	var scrapeErr error
	var steal0, total0 uint64
	var ok0 bool
	var cpu0, cpu1 time.Duration
	pid := srv.cmd.Process.Pid
	outs := drive(srv, plans, []time.Duration{timedFrom, timedTo}, func(k int) {
		if k == 0 {
			steal0, total0, ok0 = cpuTicks()
		} else {
			r.stealNote(steal0, total0, ok0)
		}
		if scrapeErr == nil {
			scrapes[k], scrapeErr = srv.scrape()
		}
		if k == 0 && scrapeErr == nil {
			cpu0, scrapeErr = pidCPU(pid)
		}
	})
	// The server's CPU time from the start of the timed window until its
	// last request has been answered, against the requests it counted
	// over the same span (scrapes[0] to scrapes[2]).
	if scrapeErr == nil {
		cpu1, scrapeErr = pidCPU(pid)
	}
	if scrapeErr == nil {
		scrapes[2], scrapeErr = srv.scrape()
	}
	if scrapeErr != nil {
		return scrapeErr
	}
	// The live heap after a forced collection, as the server reports it.
	if _, err := srv.get("/debug/pprof/heap?gc=1"); err != nil {
		return err
	}
	vars, err := srv.scrape()
	if err != nil {
		return err
	}
	stopErr := srv.stop()
	srv = nil
	if stopErr != nil {
		return stopErr
	}

	timed := slice(plans, outs, timedFrom, timedTo)
	end := scrapes[2]
	if r.trace {
		end = scrapes[1]
	}
	good := verifyServe(r, models, plans, outs, timedFrom, timedTo)
	lat := timed.latenciesMS(false)
	// At the full rate the timed window holds thousands of requests; a
	// smaller shape may have too few for a p99, which is then left out.
	p99, p99ok := percentile(lat, 99)
	reqs := end.requests() - scrapes[0].requests()
	late, backlog := generatorHealth(r, timed, timedTo)
	if r.trace {
		r.set("serve.p50_ms", median(lat))
		if p99ok {
			r.set("serve.p99_ms", p99)
		}
		return traceServe(r, models, plans, outs, scrapes, timedFrom, timedTo, lat, late, backlog)
	}
	r.set("setup_s", median(setups))
	r.note("p50_ms", "ms", median(lat))
	r.set("goodput_per_s", float64(good)/r.seconds.Seconds())
	r.set("allocs_per_op", (end.malloc-scrapes[0].malloc)/reqs)
	r.set("cpu_ms_per_op", float64(cpu1-cpu0)/1e6/reqs)
	r.set("heap_mb", vars.heap/1e6)
	if p99ok {
		r.note("p99_ms", "ms", p99)
	}
	r.note("goodput_rps", "req/s", float64(good)/r.seconds.Seconds())
	r.note("requests", "count", float64(len(timed.plans)))
	r.note("reldash.window_len", "count", scrapes[0].window)
	return nil
}

// generatorHealth reports the load generator's own lateness and its
// own backlog. A request is ready at the later of its due time and the
// moment its sender was free; its own lateness is its send time minus
// that. Waiting for a reply still due on the same connection is server
// latency, which latency from due already counts, not the generator
// falling behind. The backlog is the requests ready before the timed
// schedule ended but sent after it. A generator that fell behind fails
// the run: its latencies describe the harness, not the server.
func generatorHealth(r *run, w window, end time.Duration) (lateP99 float64, backlog int) {
	var late, wait []float64
	unsent := 0
	for i, o := range w.outs {
		ready := max(w.plans[i].due, o.free)
		late = append(late, float64(o.sent-ready)/1e6)
		wait = append(wait, float64(ready-w.plans[i].due)/1e6)
		if w.plans[i].due < end && o.sent > end {
			unsent++
			if ready < end {
				backlog++
			}
		}
	}
	r.note("loadgen.unsent_at_end", "count", float64(unsent))
	sort.Float64s(late)
	sort.Float64s(wait)
	lateP99, _ = percentile(late, 99)
	waitP99, _ := percentile(wait, 99)
	r.note("loadgen.late_p50_ms", "ms", median(late))
	r.note("loadgen.late_ms", "ms", lateP99)
	r.note("loadgen.conn_wait_p99_ms", "ms", waitP99)
	r.note("from_send_p50_ms", "ms", median(w.latenciesMS(true)))
	r.note("loadgen.backlog", "count", float64(backlog))
	if backlog > serveSenders || lateP99 > float64(serveLimit)/1e6 {
		r.op(fmt.Errorf("load generator fell behind: p99 lateness %.3g ms, backlog %d", lateP99, backlog))
	} else {
		r.note("loadgen.healthy", "bool", 1)
	}
	return lateP99, backlog
}

// verifyServe checks every reply against an in-process answer and
// returns how many timed requests were good: 200, correct, and within
// serveLimit of when they were due.
func verifyServe(r *run, models []serveModel, plans []reqPlan, outs []reqOutcome, from, to time.Duration) int {
	cache := map[[2]int]func([]byte) error{}
	good := 0
	for i, p := range plans {
		o := outs[i]
		err := o.err
		if err == nil && o.status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", o.status, o.body)
		}
		if err == nil {
			key := [2]int{p.doc, 0}
			if p.analyze {
				key[1] = 1
			}
			check, ok := cache[key]
			if !ok || p.factor != 0 {
				check = expectReply(p)
				if p.factor == 0 {
					cache[key] = check
				}
			}
			err = check(o.body)
		}
		if err != nil {
			err = fmt.Errorf("request %d (%s, factor %g): %w", i, models[p.doc].name, p.factor, err)
		}
		r.op(err)
		if err == nil && p.due >= from && p.due < to && o.done-p.due <= serveLimit {
			good++
		}
	}
	return good
}

// expectReply computes the in-process answer for a plan and returns the
// check of a reply body against it.
func expectReply(p reqPlan) func([]byte) error {
	spec, err := modelio.Parse(bytes.NewReader(p.body))
	if err != nil {
		return func([]byte) error { return err }
	}
	if p.analyze {
		return expectAnalyze(spec)
	}
	want, err := modelio.Solve(spec)
	return func(reply []byte) error {
		if err != nil {
			return fmt.Errorf("in-process solve failed but the server answered 200: %v", err)
		}
		var got struct {
			Degraded bool             `json:"degraded"`
			Results  []modelio.Result `json:"results"`
		}
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		if got.Degraded {
			return fmt.Errorf("degraded bounds-only answer")
		}
		return sameResults(got.Results, want)
	}
}

// expectAnalyze checks an /analyze reply: no error-severity diagnostic,
// and for a chain the structural report modelio.StructReport gives.
func expectAnalyze(spec *modelio.Spec) func([]byte) error {
	var want any
	var werr error
	if spec.Type == "ctmc" {
		rep, err := modelio.StructReport(spec.CTMC)
		if err == nil {
			var b []byte
			if b, err = json.Marshal(rep); err == nil {
				err = json.Unmarshal(b, &want)
			}
		}
		werr = err
	}
	return func(reply []byte) error {
		var got struct {
			Report      any               `json:"report"`
			Diagnostics []lint.Diagnostic `json:"diagnostics"`
		}
		if err := json.Unmarshal(reply, &got); err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
		if lint.HasErrors(got.Diagnostics) {
			return fmt.Errorf("analyze reported errors on a clean document")
		}
		if !reflect.DeepEqual(got.Report, want) {
			return fmt.Errorf("analyze report differs from modelio.StructReport")
		}
		return nil
	}
}

// iterPoints counts the iteration points in a ?trace=1 reply's span tree.
func iterPoints(reply []byte) (int, error) {
	type wireSpan struct {
		Iters    []json.RawMessage `json:"iters"`
		Children []*wireSpan       `json:"children"`
	}
	var got struct {
		Trace *wireSpan `json:"trace"`
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return 0, err
	}
	if got.Trace == nil {
		return 0, fmt.Errorf("reply carries no trace")
	}
	n := 0
	var walk func(*wireSpan)
	walk = func(s *wireSpan) {
		n += len(s.Iters)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(got.Trace)
	return n, nil
}
