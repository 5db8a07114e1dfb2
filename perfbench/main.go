// Command perfbench is the repository benchmark. It runs one workload —
// serve-mix, solve-large or sweep-durable — for a fixed time, checks
// every output against an independent answer, and prints one JSON line
// of metrics. With -trace 1 it instead reports the per-layer figures of
// a separate traced run. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	root    string    // repository root (the working directory)
	relcli  string    // built relcli binary
	scratch string    // per-run scratch directory inside the checkout
	log     io.Writer // diagnostics (standard error)
	out     io.Writer // human-readable figures (standard output)

	// The workload shapes: full size here, tiny in the smoke tests.
	serve serveShape
	large largeShape
	sweep sweepShape

	attempted, failed int
	// counters holds deterministic counters; a second value that
	// differs from the first is drift and fails the run.
	counters map[string]float64
	metrics  map[string]float64
}

// op records one attempted operation and its outcome. A failed check
// that is not itself an operation (a counter drift, a generator that fell
// behind) is recorded the same way, as one more failed attempt.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.log, "perfbench: FAILED: %v\n", err)
		}
	}
}

// set reports a metric value; units come from the metric table.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note prints a figure on its own line of standard output, by name with
// its unit, ahead of the JSON line. It carries the workload-specific
// names (p99_ms, suite_s, samples_per_s, error_rate, …) and the
// generator health.
func (r *run) note(name, unit string, v float64) {
	fmt.Fprintf(r.out, "%-28s %.10g %s\n", name, v, unit)
}

// counter records a deterministic counter and flags any drift from the
// value first seen in this run.
func (r *run) counter(name string, v float64) {
	if prev, ok := r.counters[name]; ok && prev != v { //numvet:allow float-eq counters are integral and must repeat exactly
		r.op(fmt.Errorf("deterministic counter %s drifted: %g then %g", name, prev, v))
		return
	}
	r.counters[name] = v
}

var workloads = map[string]func(*run) error{
	"serve-mix":     runServeMix,
	"solve-large":   runSolveLarge,
	"sweep-durable": runSweepDurable,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-mix, solve-large or sweep-durable")
	seed := fs.Uint64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	relcli := fs.String("relcli", "", "relcli binary for serve-mix")
	scratch := fs.String("scratch", ".bench_build/run", "scratch directory, inside the checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		root: root, relcli: *relcli, scratch: dir, log: os.Stderr, out: stdout,
		serve: fullServe, large: fullLarge, sweep: fullSweep,
		counters: map[string]float64{}, metrics: map[string]float64{},
	}
	fmt.Fprintf(r.log, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := fn(r); err != nil {
		return err
	}
	if err := r.compareCounters(filepath.Join(*scratch, "counters"), *workload); err != nil {
		return err
	}
	if r.attempted > 0 {
		r.note("error_rate", "ratio", float64(r.failed)/float64(r.attempted))
	}
	rep, err := r.report()
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// report assembles the final line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A per-layer
// metric of a layer this workload does not exercise reads 0.
func (r *run) report() (report, error) {
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	out := report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	out.Correct = r.failed == 0 && r.attempted > 0
	for _, d := range table {
		v, ok := r.metrics[d.Name]
		if !ok && !r.trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			return out, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return out, nil
}

// compareCounters checks this run's deterministic counters against the
// last run of the same binary, workload, seed and mode, then records
// them for the next one. The binary's hash is part of the key, so a
// change to the program starts a fresh record instead of reading as
// drift.
func (r *run) compareCounters(dir, workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%x-%s-%d-%t.json", sha256.Sum256(bin), workload, r.seed, r.trace))
	if prev, err := os.ReadFile(path); err == nil {
		var before map[string]float64
		if err := json.Unmarshal(prev, &before); err != nil {
			return fmt.Errorf("counter record %s: %w", path, err)
		}
		for _, name := range sortedKeys(r.counters) {
			if v, ok := before[name]; ok && v != r.counters[name] { //numvet:allow float-eq counters are integral and must repeat exactly
				r.op(fmt.Errorf("deterministic counter %s drifted across runs at seed %d: %g then %g", name, r.seed, v, r.counters[name]))
			}
		}
	}
	b, err := json.Marshal(r.counters)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
