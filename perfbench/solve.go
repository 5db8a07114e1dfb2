package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/faulttree"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/spn"
)

// largeSetupRepeats is how many times solve-large sets up; setup_s is
// the median. A set-up includes a whole untimed pass, so it is costly.
const largeSetupRepeats = 3

// runSolveLarge times passes over the solve-large documents through the
// path `relcli solve -preflight` takes: Parse, then SolveWithOptions with
// preflight on and no recorder.
func runSolveLarge(r *run) error {
	var set largeSet
	var setups []float64
	for i := 0; i < largeSetupRepeats; i++ {
		t0 := time.Now()
		s, err := setupLarge(r)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			set = s
		} else {
			set.agree(s)
		}
	}
	// The first set-up's answers are scored against the independent
	// references. Every later answer must reproduce them bit for bit,
	// and a document answered wrongly there counts as failed on every
	// pass.
	for i, d := range set.docs {
		if set.wrong[i] == nil {
			set.wrong[i] = wrapClass(d.class, d.check(set.want[i]))
		}
	}
	if r.trace {
		return traceSolveLarge(r, set)
	}
	steal0, total0, ok0 := cpuTicks()
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	passes, good, wall, allocs := set.passes(r, r.seconds, nil)
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	r.stealNote(steal0, total0, ok0)
	r.set("setup_s", median(setups))
	r.note("p50_ms", "ms", median(passes)*1e3)
	r.set("goodput_per_s", float64(good)/wall)
	r.set("cpu_ms_per_op", float64(cpu1-cpu0)/1e6/float64(len(passes)))
	r.set("allocs_per_op", allocs/float64(len(passes)))
	r.set("heap_mb", liveHeapMB())
	r.note("suite_s", "s", median(passes))
	r.note("passes", "count", float64(len(passes)))
	return nil
}

// setupLarge is one set-up: generating the documents and a first, untimed
// pass over them, the time from workload start to the first timed solve.
func setupLarge(r *run) (largeSet, error) {
	docs, err := genLarge(r.seed, r.large)
	if err != nil {
		return largeSet{}, err
	}
	set := largeSet{docs: docs, want: make([][]modelio.Result, len(docs)), wrong: make([]error, len(docs))}
	for i, d := range docs {
		t0 := time.Now()
		rs, err := solveDoc(d.body, nil)
		fmt.Fprintf(r.log, "perfbench: %s solved in %v\n", d.class, time.Since(t0))
		set.want[i], set.wrong[i] = rs, wrapClass(d.class, err)
	}
	return set, nil
}

// agree marks a document wrong when a later set-up answered it
// differently from the first.
func (set largeSet) agree(later largeSet) {
	for i, d := range set.docs {
		if set.wrong[i] != nil {
			continue
		}
		err := later.wrong[i]
		if err == nil {
			err = wrapClass(d.class, sameResults(later.want[i], set.want[i]))
		}
		set.wrong[i] = err
	}
}

func wrapClass(class string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", class, err)
	}
	return nil
}

// solveDoc is one document through Parse and SolveWithOptions with
// preflight on.
func solveDoc(body []byte, rec obs.Recorder) ([]modelio.Result, error) {
	spec, err := modelio.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return modelio.SolveWithOptions(spec, modelio.SolveOptions{Preflight: true, Recorder: rec})
}

// largeSet is the solve-large documents with the first pass's answers
// and the verdict of the independent check on each.
type largeSet struct {
	docs  []largeDoc
	want  [][]modelio.Result
	wrong []error
}

// passes runs whole passes until d has elapsed (at least three). An
// answer is correct when it reproduces the checked first-pass answer
// bit for bit and that answer passed its independent check. With traces
// non-nil every document is solved under a fresh obs.Trace, appended to
// traces. It returns the pass times in seconds, the number of correct
// documents, the wall time and the heap allocations made.
func (set largeSet) passes(r *run, d time.Duration, traces *[]*obs.Trace) (passes []float64, good int, wall, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(passes) < 3 || time.Since(start) < d {
		t0 := time.Now()
		for i, doc := range set.docs {
			var rec obs.Recorder
			if traces != nil {
				tr := obs.NewTrace(doc.class)
				*traces = append(*traces, tr)
				rec = tr
			}
			rs, err := solveDoc(doc.body, rec)
			if err == nil {
				err = wrapClass(doc.class, sameResults(rs, set.want[i]))
			}
			if err == nil {
				err = set.wrong[i]
			}
			r.op(err)
			if err == nil {
				good++
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	return passes, good, wall, float64(ms1.Mallocs - ms0.Mallocs)
}

// liveHeapMB forces a collection and returns the live heap in MB (1e6
// bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// traceSolveLarge is the traced run: untraced and traced passes back to
// back (the difference is the tracing overhead, and the traces carry the
// solver's own counts), then per-layer probes that time each module's
// public functions on every document.
func traceSolveLarge(r *run, set largeSet) error {
	third := r.seconds / 3
	plain, _, _, _ := set.passes(r, third, nil)
	var traces []*obs.Trace
	traced, _, _, _ := set.passes(r, third, &traces)
	r.set("trace.overhead_ms", (median(traced)-median(plain))*1e3)
	// The counts are per pass: the last trace of each document class,
	// summed over classes; every earlier trace of a class must match.
	perClass := map[string]map[string]float64{}
	for _, tr := range traces {
		root := tr.Finish()
		counts := solveCounts(root)
		for _, name := range sortedKeys(counts) {
			r.counter(root.Name+"/"+name, counts[name])
		}
		perClass[root.Name] = counts
	}
	for _, counts := range perClass {
		for name, v := range counts {
			r.metrics[name] += v
		}
	}

	perPass := map[string][]float64{}
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < third; n++ {
		t := newTracer()
		for _, d := range set.docs {
			if err := probeDoc(r, t, d); err != nil {
				r.op(wrapClass(d.class, err))
			}
		}
		ms, _ := selfByName(t.spans)
		for _, name := range sortedKeys(ms) {
			perPass[name+"_ms"] = append(perPass[name+"_ms"], ms[name])
		}
	}
	for _, def := range perLayer {
		if xs, ok := perPass[def.Name]; ok {
			r.set(def.Name, median(xs))
		}
	}
	r.set("trace.unattributed_ms", median(perPass["doc_ms"]))
	return nil
}

// solveCounts reads the deterministic counts the program's own trace
// records for one document: SOR sweeps, uniformization steps, BDD nodes
// and tangible markings.
func solveCounts(root *obs.Span) map[string]float64 {
	counts := map[string]float64{}
	root.Walk(func(s *obs.Span) {
		pick := func(attr, metric string) {
			if v, ok := s.Attr(attr); ok {
				if n, ok := v.(int64); ok {
					counts[metric] += float64(n)
				}
			}
		}
		switch s.Name {
		case "linalg.sor":
			pick("iterations", "linalg.sor_iters")
		case "markov.transient":
			pick("steps", "markov.unif_terms")
		}
		pick("bdd_nodes", "bdd.nodes")
		pick("tangible_states", "spn.markings")
	})
	return counts
}

// probeDoc times each layer's public entry point on one document under
// a "doc" span; the doc span's self time is the benchmark's own glue.
func probeDoc(r *run, t *tracer, d largeDoc) error {
	id := t.begin("doc")
	defer t.end(id)
	var spec *modelio.Spec
	var err error
	t.do("modelio.parse", func() { spec, err = modelio.Parse(bytes.NewReader(d.body)) })
	if err != nil {
		return err
	}
	t.do("modelio.lint", func() { modelio.Lint(spec) })
	switch spec.Type {
	case "ctmc":
		return probeChain(t, d, spec.CTMC)
	case "faulttree":
		return probeFaultTree(r, t, spec.FaultTree)
	case "spn":
		return probeSPN(r, t, spec.SPN)
	}
	return fmt.Errorf("unexpected document type %q", spec.Type)
}

func probeChain(t *tracer, d largeDoc, spec *modelio.CTMCSpec) error {
	var err error
	t.do("relstruct.analyze", func() { _, err = modelio.StructReport(spec) })
	if err != nil {
		return err
	}
	var c *markov.CTMC
	var q *linalg.CSR
	t.do("markov.build", func() {
		c = markov.NewCTMC()
		for _, tr := range spec.Transitions {
			if err = c.AddRate(tr.From, tr.To, tr.Rate); err != nil {
				return
			}
		}
		q, err = c.Generator()
	})
	if err != nil {
		return err
	}
	coo := linalg.NewCOO(d.n, d.n)
	diag := make([]float64, d.n)
	for _, tr := range d.trips {
		if err := coo.Add(tr.from, tr.to, tr.rate); err != nil {
			return err
		}
		diag[tr.from] -= tr.rate
	}
	for i, v := range diag {
		if err := coo.Add(i, i, v); err != nil {
			return err
		}
	}
	t.do("linalg.csr", func() { coo.ToCSR() })
	switch d.class {
	case "shared-repair":
		t.do("linalg.gth", func() { _, err = linalg.GTHCSR(q) })
		if err != nil {
			return err
		}
		fallthrough
	case "birth-death":
		t.do("linalg.sor", func() { _, _, err = linalg.SORSteadyState(q, linalg.SOROptions{}) })
	case "stiff-transient":
		var p0 []float64
		if p0, err = c.InitialAt(spec.Initial); err != nil {
			return err
		}
		t.do("markov.transient", func() { _, err = c.Transient(spec.Time, p0, markov.TransientOptions{}) })
	}
	return err
}

func probeFaultTree(r *run, t *tracer, spec *modelio.FaultTreeSpec) error {
	pool := map[string]*faulttree.Event{}
	var kids []*faulttree.Node
	for _, e := range spec.Events {
		pool[e.Name] = &faulttree.Event{Name: e.Name, Prob: e.Prob}
	}
	for _, g := range spec.Top.Children {
		kids = append(kids, faulttree.Basic(pool[g.Event]))
	}
	var tree *faulttree.Tree
	var err error
	t.do("bdd.compile", func() { tree, err = faulttree.New(faulttree.AtLeast(spec.Top.K, kids...)) })
	if err != nil {
		return err
	}
	r.counter("probe/bdd.nodes", float64(tree.BDDSize()))
	return nil
}

func probeSPN(r *run, t *tracer, spec *modelio.SPNSpec) error {
	n := spn.New()
	for _, p := range spec.Places {
		if err := n.Place(p.Name, p.Tokens); err != nil {
			return err
		}
	}
	for _, tr := range spec.Transitions {
		if err := n.Timed(tr.Name, tr.Rate); err != nil {
			return err
		}
	}
	for _, a := range spec.Arcs {
		var err error
		if a.Kind == "input" {
			err = n.Input(a.Place, a.Transition, 1)
		} else {
			err = n.Output(a.Transition, a.Place, 1)
		}
		if err != nil {
			return err
		}
	}
	var tc *spn.TangibleChain
	var err error
	t.do("spn.generate", func() { tc, err = n.Generate(spec.MaxStates) })
	if err != nil {
		return err
	}
	r.counter("probe/spn.markings", float64(tc.NumTangible()))
	return nil
}
