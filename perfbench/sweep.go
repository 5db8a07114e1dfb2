package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/modelio"
	"repro/internal/uncertainty"
)

// sweepShape sizes the sweep-durable job. Like the solve-large sizes it
// is fixed; the seed draws the base rates and the sample stream.
type sweepShape struct {
	samples, shardSize int
}

// fullSweep uses the engine's default shard size (1000 samples), so a
// job writes 20 checkpoint records.
var fullSweep = sweepShape{samples: 20000, shardSize: 1000}

// rankTol bounds the folded P50's rank error: four standard errors of a
// sample median's rank, 4·0.5/√samples (0.0141 at 20000 samples).
func (sh sweepShape) rankTol() float64 { return 4 * 0.5 / math.Sqrt(float64(sh.samples)) }

const (
	sweepComps   = 6   // k-of-n repair chain: states f0..f6
	sweepUpMax   = 3   // up while at most 3 components are down
	sweepSigma   = 0.5 // lognormal shape of the uncertain rate
	sweepWorkers = 2   // engine workers: the box's core count
	// sweepSetupRepeats is how many times sweep-durable sets up; setup_s
	// is the median.
	sweepSetupRepeats = 9
)

// sweepCase is one generated sweep: the job spec, the base chain, and
// the exact answers its P50 is checked against.
type sweepCase struct {
	spec    jobs.Spec
	base    *modelio.CTMCSpec
	param   jobs.ParamSpec
	p50Lo   float64 // availability at the rate quantile 0.5+tol
	p50Hi   float64 // availability at the rate quantile 0.5-tol
	p50True float64 // availability at the median rate
}

// genSweep builds a k-of-n birth–death repair chain whose first-failure
// rate is uncertain (lognormal, median 1× the base rate). Availability
// is monotone decreasing in that rate, so the exact median of the
// sampled availability is the availability at the median rate, and any
// rank band maps to an availability band through two exact solves.
func genSweep(seed uint64, sh sweepShape) (*sweepCase, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	lam := logUniform(rng, 1e-4, 1e-3)
	mu := logUniform(rng, 0.05, 0.5)
	name := func(i int) string { return fmt.Sprintf("f%d", i) }
	base := &modelio.CTMCSpec{Measures: []string{"availability"}}
	for i := 0; i < sweepComps; i++ {
		base.Transitions = append(base.Transitions,
			modelio.CTMCTransition{From: name(i), To: name(i + 1), Rate: float64(sweepComps-i) * lam},
			modelio.CTMCTransition{From: name(i + 1), To: name(i), Rate: mu})
	}
	for i := 0; i <= sweepUpMax; i++ {
		base.UpStates = append(base.UpStates, name(i))
	}
	model, err := json.Marshal(modelio.Spec{Type: "ctmc", Name: "k-of-n repair chain", CTMC: base})
	if err != nil {
		return nil, err
	}
	sc := &sweepCase{
		base: base,
		param: jobs.ParamSpec{Name: "first_failure", From: name(0), To: name(1), Scale: true,
			Dist: &modelio.DistSpec{Kind: "lognormal", Mu: 0, Sigma: sweepSigma}},
	}
	sc.spec = jobs.Spec{
		Model: model, Measure: "availability", Params: []jobs.ParamSpec{sc.param},
		Samples: sh.samples, ShardSize: sh.shardSize, Seed: seed,
	}
	eval := sampleModel(base, sc.param)
	z := normalQuantile(0.5 + sh.rankTol())
	if sc.p50True, err = eval(map[string]float64{sc.param.Name: 1}); err != nil {
		return nil, err
	}
	if sc.p50Lo, err = eval(map[string]float64{sc.param.Name: math.Exp(sweepSigma * z)}); err != nil {
		return nil, err
	}
	if sc.p50Hi, err = eval(map[string]float64{sc.param.Name: math.Exp(-sweepSigma * z)}); err != nil {
		return nil, err
	}
	return sc, nil
}

// normalQuantile is Φ⁻¹(p) by bisection on the error function; it runs
// once per generated sweep, so simplicity beats speed.
func normalQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// sampleModel is the per-sample evaluation the job engine runs: rewrite
// the targeted rate on a clone of the base chain and solve the one
// measure. It is rebuilt here from the public modelio API so the layer
// can be timed without the engine.
func sampleModel(base *modelio.CTMCSpec, p jobs.ParamSpec) uncertainty.Model {
	return func(assign map[string]float64) (float64, error) {
		clone := *base
		clone.Transitions = append([]modelio.CTMCTransition(nil), base.Transitions...)
		for j, tr := range clone.Transitions {
			if tr.From == p.From && tr.To == p.To {
				clone.Transitions[j].Rate *= assign[p.Name]
			}
		}
		rs, err := modelio.SolveWithOptions(&modelio.Spec{Type: "ctmc", CTMC: &clone}, modelio.SolveOptions{})
		if err != nil {
			return 0, err
		}
		return rs[0].Value, nil
	}
}

// sweepRig runs sweep jobs, each on a fresh engine sharing one metrics
// registry, so every job is "j1" and its checkpoint log has the same
// bytes at the same seed. dir "" runs without durability.
type sweepRig struct {
	sc  *sweepCase
	reg *metrics.Registry
	dir string
}

// openEngine starts an engine the way `relcli serve` does at boot: New,
// then Recover over the checkpoint directory.
func (g *sweepRig) openEngine() (*jobs.Engine, error) {
	eng, err := jobs.New(jobs.Config{Dir: g.dir, Workers: sweepWorkers, Registry: g.reg})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Recover(); err != nil {
		closeEngine(eng)
		return nil, err
	}
	return eng, nil
}

func closeEngine(eng *jobs.Engine) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return eng.Close(ctx)
}

// job submits one sweep to a fresh engine and times Submit through
// Wait. It returns the finished snapshot, the time and the bytes the
// job left in the checkpoint directory, which it then empties.
func (g *sweepRig) job() (snap *jobs.Snapshot, took time.Duration, walBytes int64, err error) {
	eng, err := g.openEngine()
	if err != nil {
		return nil, 0, 0, err
	}
	spec := g.sc.spec
	t0 := time.Now()
	snap, _, err = eng.Submit(&spec, "")
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		snap, err = eng.Wait(ctx, snap.ID)
		cancel()
	}
	took = time.Since(t0)
	if cerr := closeEngine(eng); err == nil {
		err = cerr
	}
	if err != nil || g.dir == "" {
		return snap, took, 0, err
	}
	if walBytes, err = dirBytes(g.dir); err != nil {
		return snap, took, 0, err
	}
	return snap, took, walBytes, clearDir(g.dir)
}

// checkSweep scores one finished job: done, its P50 inside the exact
// rank band, and every statistic bit-identical to the first job of the
// run (same seed, so the same shards and the same fold).
func checkSweep(sc *sweepCase, snap *jobs.Snapshot, first **uncertainty.SweepResult) error {
	if snap.State != jobs.StateDone || snap.Result == nil {
		return fmt.Errorf("sweep job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	res := snap.Result
	p50, err := res.Quantile(0.5)
	if err != nil {
		return err
	}
	if !(p50 >= sc.p50Lo && p50 <= sc.p50Hi) {
		return fmt.Errorf("sweep P50 %.12g outside the exact band [%.12g, %.12g] (median-rate availability %.12g)",
			p50, sc.p50Lo, sc.p50Hi, sc.p50True)
	}
	if *first == nil {
		*first = res
		return nil
	}
	a, b := *first, res
	same := a.N == b.N && len(a.Quantiles) == len(b.Quantiles)
	for _, pair := range [][2]float64{{a.Mean, b.Mean}, {a.StdDev, b.StdDev}, {a.Min, b.Min}, {a.Max, b.Max}} {
		same = same && math.Float64bits(pair[0]) == math.Float64bits(pair[1])
	}
	for i := 0; same && i < len(a.Quantiles); i++ {
		same = math.Float64bits(a.Quantiles[i].Value) == math.Float64bits(b.Quantiles[i].Value)
	}
	if !same {
		return fmt.Errorf("sweep job %s result differs from the first job at the same seed", snap.ID)
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// jobRuns is what sweepJobs measured: per job, its Submit-to-Wait time
// and the benchmark process's CPU time over the whole job (engine start
// and close included), in seconds, and its correct samples per second of
// Submit-to-Wait time (0 for a failed job); plus the heap allocations
// made over all jobs.
type jobRuns struct {
	times, cpus, goodput []float64
	allocs               float64
}

// sweepJobs runs jobs until d has elapsed (at least atLeast), checking
// each.
func sweepJobs(r *run, g *sweepRig, d time.Duration, atLeast int, first **uncertainty.SweepResult) (jobRuns, error) {
	var out jobRuns
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(out.times) < atLeast || time.Since(start) < d {
		cpu0, err := selfCPU()
		if err != nil {
			return out, err
		}
		snap, took, n, err := g.job()
		if err != nil {
			return out, err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return out, err
		}
		out.times = append(out.times, took.Seconds())
		out.cpus = append(out.cpus, (cpu1 - cpu0).Seconds())
		var good float64
		if cerr := g.record(r, snap, n, first); cerr == nil {
			good = float64(g.sc.spec.Samples) / took.Seconds()
		}
		out.goodput = append(out.goodput, good)
	}
	runtime.ReadMemStats(&ms1)
	out.allocs = float64(ms1.Mallocs - ms0.Mallocs)
	return out, nil
}

// record scores one job and feeds its deterministic counters.
func (g *sweepRig) record(r *run, snap *jobs.Snapshot, walBytes int64, first **uncertainty.SweepResult) error {
	err := checkSweep(g.sc, snap, first)
	r.op(err)
	r.counter("jobs.retries", float64(snap.Retries))
	if g.dir != "" {
		r.counter("jobs.wal_bytes", float64(walBytes))
	}
	return err
}

func clearDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// runSweepDurable times durable lognormal sweeps on the job engine.
func runSweepDurable(r *run) error {
	g := &sweepRig{reg: metrics.NewRegistry(), dir: filepath.Join(r.scratch, "ckpt")}
	var first *uncertainty.SweepResult
	var setups []float64
	// A set-up is generating the sweep, with its exact solves, and one
	// untimed job: the time from workload start to the first timed job.
	// The first job fixes the reference result.
	for i := 0; i < sweepSetupRepeats; i++ {
		t0 := time.Now()
		sc, err := genSweep(r.seed, r.sweep)
		if err != nil {
			return err
		}
		g.sc = sc
		if _, err := sweepJobs(r, g, 0, 1, &first); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := r.sweepDigest(first); err != nil {
		return err
	}
	if r.trace {
		return traceSweep(r, g, &first)
	}
	// Figures are medians over the jobs of the run, so a burst of stolen
	// CPU during one job does not move them.
	steal0, total0, ok0 := cpuTicks()
	jr, err := sweepJobs(r, g, r.seconds, 3, &first)
	if err != nil {
		return err
	}
	perJob := float64(g.sc.spec.Samples)
	r.stealNote(steal0, total0, ok0)
	r.set("setup_s", median(setups))
	r.note("p50_ms", "ms", median(jr.times)*1e3)
	r.set("goodput_per_s", median(jr.goodput))
	r.set("cpu_ms_per_op", median(jr.cpus)*1e3/perJob)
	r.set("allocs_per_op", jr.allocs/(perJob*float64(len(jr.times))))
	r.set("heap_mb", liveHeapMB())
	r.note("samples_per_s", "samples/s", median(jr.goodput))
	r.note("jobs", "count", float64(len(jr.times)))
	r.note("exact.p50", "availability", g.sc.p50True)
	if first != nil {
		p50, _ := first.Quantile(0.5)
		r.note("sweep.p50", "availability", p50)
	}
	return nil
}

// sweepDigest prints a digest of the reference result and records its
// first 48 bits, exact in a float64, as a deterministic counter: runs at
// one seed must fold bit-identical results, and compareCounters fails a
// run whose digest differs from the previous run's.
func (r *run) sweepDigest(first *uncertainty.SweepResult) error {
	if first == nil {
		return nil // every job failed its check; the failures are counted
	}
	b, err := json.Marshal(first)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	fmt.Fprintf(r.out, "%-28s %x\n", "sweep.result_sha256", sum)
	r.counter("sweep.result_sha256_48", float64(binary.BigEndian.Uint64(sum[:8])>>16))
	return nil
}

// traceSweep is the traced run: durable and in-memory jobs alternated
// (the median pairwise difference is the cost of durability), jobs under
// benchmark spans (their excess over the untraced jobs is the tracing
// overhead), then the layers the engine is built from, timed one by one.
func traceSweep(r *run, g *sweepRig, first **uncertainty.SweepResult) error {
	quarter := r.seconds / 4
	mem := &sweepRig{sc: g.sc, reg: metrics.NewRegistry()}
	var durable, diffs []float64
	start := time.Now()
	for len(diffs) < 3 || time.Since(start) < 2*quarter {
		snapD, tookD, n, err := g.job()
		if err != nil {
			return err
		}
		g.record(r, snapD, n, first)
		snapM, tookM, _, err := mem.job()
		if err != nil {
			return err
		}
		mem.record(r, snapM, 0, first)
		durable = append(durable, tookD.Seconds())
		diffs = append(diffs, (tookD - tookM).Seconds())
	}
	r.set("jobs.durability_ms", median(diffs)*1e3)
	r.set("jobs.retries", r.counters["jobs.retries"])
	r.set("jobs.wal_bytes", r.counters["jobs.wal_bytes"])
	for _, f := range g.reg.Snapshot() {
		if f.Name == "reljob_checkpoint_seconds" && len(f.Series) == 1 && f.Series[0].Count > 0 {
			r.set("jobs.checkpoint_ms", f.Series[0].Sum/float64(f.Series[0].Count)*1e3)
		}
	}

	t := newTracer()
	var traced []float64
	for len(traced) < 3 {
		var snap *jobs.Snapshot
		var n int64
		var jerr error
		traced = append(traced, t.do("jobs.job", func() { snap, _, n, jerr = g.job() }).Seconds())
		if jerr != nil {
			return jerr
		}
		g.record(r, snap, n, first)
	}
	r.set("trace.overhead_ms", (median(traced)-median(durable))*1e3)

	sc := g.sc
	d, err := sc.param.Dist.Distribution()
	if err != nil {
		return err
	}
	params := []uncertainty.Param{{Name: sc.param.Name, Dist: d}}
	model := sampleModel(sc.base, sc.param)
	rng := uncertainty.ShardRNG(sc.spec.Seed, 0)
	var solveUS []float64
	for i := 0; i < 4*sc.spec.ShardSize; i++ {
		assign := map[string]float64{sc.param.Name: d.Rand(rng)}
		var merr error
		solveUS = append(solveUS, float64(t.do("modelio.sample_solve", func() { _, merr = model(assign) }).Nanoseconds())/1e3)
		if merr != nil {
			return merr
		}
	}
	r.set("modelio.sample_solve_us", median(solveUS))
	var states []*uncertainty.ShardState
	var shardMS []float64
	start = time.Now()
	for i := 0; i < sc.spec.Samples/sc.spec.ShardSize && (i < 3 || time.Since(start) < quarter); i++ {
		plan := uncertainty.ShardPlan{Index: i, Size: sc.spec.ShardSize, Seed: sc.spec.Seed, Quantiles: []float64{0.05, 0.5, 0.95}}
		var st *uncertainty.ShardState
		var serr error
		shardMS = append(shardMS, float64(t.do("uncertainty.shard", func() {
			st, serr = uncertainty.RunShard(context.Background(), model, params, plan)
		}).Nanoseconds())/1e6)
		if serr != nil {
			return serr
		}
		states = append(states, st)
	}
	r.set("uncertainty.shard_ms", median(shardMS))
	var foldMS []float64
	for i := 0; i < 20; i++ {
		var ferr error
		foldMS = append(foldMS, float64(t.do("uncertainty.fold", func() { _, ferr = uncertainty.FoldShards(states) }).Nanoseconds())/1e6)
		if ferr != nil {
			return ferr
		}
	}
	r.set("uncertainty.fold_ms", median(foldMS))
	return nil
}
