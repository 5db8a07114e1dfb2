package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/modelio"
)

// largeShape sizes the solve-large documents. The seed varies rates,
// probabilities and time scales, never a document's size, so runs at
// different seeds measure the same work.
type largeShape struct {
	sharedRepairComps int     // 2^n states; 10 gives 1024, above the GTH threshold, so auto picks SOR
	birthDeathStates  int     // SOR-pinned birth–death chain
	kofnEvents, kofnK int     // top event: at least K of N basic events fail
	stiffComps        int     // 2^n states, independent repair
	stiffTerms        float64 // uniformization rate × horizon
	spnComps          int     // 2^n tangible markings
}

var fullLarge = largeShape{
	sharedRepairComps: 10, birthDeathStates: 4096, kofnEvents: 120, kofnK: 60,
	stiffComps: 8, stiffTerms: 2e4, spnComps: 12,
}

const (
	sharedRepairUpMax = 2   // up while at most 2 components are down
	birthDeathRho     = 0.5 // constant birth/death ratio
)

// largeDoc is one solve-large document: its bytes, the layer it is
// built to stress, and the independent check of its results.
type largeDoc struct {
	class string
	body  []byte
	check func([]modelio.Result) error
	// n and trips are a chain's state count and generator triples, for
	// the layer probes (zero for the other documents).
	n     int
	trips []triple
}

// genLarge builds the five solve-large documents from seed.
func genLarge(seed uint64, sh largeShape) ([]largeDoc, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	gens := []func(*rand.Rand, largeShape) (largeDoc, error){
		genSharedRepair, genBirthDeath, genKofN, genStiff, genRepairSPN,
	}
	docs := make([]largeDoc, 0, len(gens))
	for _, g := range gens {
		d, err := g(rng, sh)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

func ctmcDoc(name string, stateName func(int) string, ts []triple, c modelio.CTMCSpec) ([]byte, error) {
	c.Transitions = make([]modelio.CTMCTransition, len(ts))
	for i, t := range ts {
		c.Transitions[i] = modelio.CTMCTransition{From: stateName(t.from), To: stateName(t.to), Rate: t.rate}
	}
	return json.Marshal(modelio.Spec{Type: "ctmc", Name: name, CTMC: &c})
}

// genSharedRepair is a 2^n chain of n components that fail independently
// and share one repair crew fixing the lowest-numbered failed component
// first. It has no product form; the reference is GTH on the same
// triples, and the served steady-state vector must also have a small
// ‖πQ‖ residual.
func genSharedRepair(rng *rand.Rand, sh largeShape) (largeDoc, error) {
	n := 1 << sh.sharedRepairComps
	lam := make([]float64, sh.sharedRepairComps)
	mu := make([]float64, sh.sharedRepairComps)
	for i := range lam {
		lam[i] = logUniform(rng, 1e-3, 1e-2)
		mu[i] = logUniform(rng, 0.5, 2)
	}
	var ts []triple
	for s := 0; s < n; s++ {
		for i := 0; i < sh.sharedRepairComps; i++ {
			if s&(1<<i) == 0 {
				ts = append(ts, triple{s, s | 1<<i, lam[i]})
			}
		}
		if s != 0 {
			j := bits.TrailingZeros(uint(s))
			ts = append(ts, triple{s, s &^ (1 << j), mu[j]})
		}
	}
	name := func(s int) string { return fmt.Sprintf("r%03x", s) }
	var up []string
	for s := 0; s < n; s++ {
		if bits.OnesCount(uint(s)) <= sharedRepairUpMax {
			up = append(up, name(s))
		}
	}
	body, err := ctmcDoc("shared-repair farm", name, ts, modelio.CTMCSpec{
		UpStates: up, Measures: []string{"availability", "steadystate"},
	})
	if err != nil {
		return largeDoc{}, err
	}
	check := func(rs []modelio.Result) error {
		ref, err := gthReference(n, ts)
		if err != nil {
			return err
		}
		byM := resultByMeasure(rs)
		ss := byM["steadystate"].Detail
		if len(ss) != n {
			return fmt.Errorf("shared-repair: %d steady-state entries, want %d", len(ss), n)
		}
		pi := make([]float64, n)
		var aRef float64
		for s := range pi {
			pi[s] = ss[name(s)]
			if bits.OnesCount(uint(s)) <= sharedRepairUpMax {
				aRef += ref[s]
			}
		}
		// SOR stops on a 1e-12 sweep delta; nine correct decimals of
		// availability, and a residual nine orders below the fastest
		// rate, leave three orders for an honest convergence.
		if err := within("shared-repair availability vs GTH", byM["availability"].Value, aRef, 1e-9, false); err != nil {
			return err
		}
		if r := residualInf(pi, ts); !(r <= 1e-9) {
			return fmt.Errorf("shared-repair: ‖πQ‖∞/max exit rate = %.3g > 1e-9", r)
		}
		return nil
	}
	return largeDoc{class: "shared-repair", body: body, check: check, n: n, trips: ts}, nil
}

// genBirthDeath is a long birth–death chain pinned to SOR. Its product
// form is exact, so an SOR early stop shows as a per-state error. Each
// document asks for one measure: every steady-state measure re-solves
// the chain, and one solve is the kernel being measured.
func genBirthDeath(rng *rand.Rand, sh largeShape) (largeDoc, error) {
	n := sh.birthDeathStates
	// The tail of π falls below the smallest normal double, where every
	// operation is slow; how many states SOR handles there shifts with
	// log2 of the time scale. A scale within one octave keeps the cost of
	// a solve the same at every seed.
	c := logUniform(rng, 1, 2)
	var ts []triple
	for i := 0; i+1 < n; i++ {
		ts = append(ts, triple{i, i + 1, birthDeathRho * c}, triple{i + 1, i, c})
	}
	name := func(i int) string { return fmt.Sprintf("b%04d", i) }
	body, err := ctmcDoc("birth-death queue", name, ts, modelio.CTMCSpec{
		Measures: []string{"steadystate"}, Solver: "sor", Lump: "off",
	})
	if err != nil {
		return largeDoc{}, err
	}
	check := func(rs []modelio.Result) error {
		want := birthDeathPi(n, birthDeathRho)
		ss := resultByMeasure(rs)["steadystate"].Detail
		if len(ss) != n {
			return fmt.Errorf("birth-death: %d steady-state entries, want %d", len(ss), n)
		}
		for i, w := range want {
			if err := within("birth-death π["+name(i)+"] vs product form", ss[name(i)], w, 1e-9, false); err != nil {
				return err
			}
		}
		return nil
	}
	return largeDoc{class: "birth-death", body: body, check: check, n: n, trips: ts}, nil
}

// genKofN is a fault tree whose top event is "at least K of N basic
// events", checked against the Poisson-binomial dynamic program.
func genKofN(rng *rand.Rand, sh largeShape) (largeDoc, error) {
	p := make([]float64, sh.kofnEvents)
	ft := &modelio.FaultTreeSpec{Top: &modelio.GateSpec{Op: "atleast", K: sh.kofnK}, Measures: []string{"top"}}
	for i := range p {
		p[i] = 0.3 + 0.3*rng.Float64()
		name := fmt.Sprintf("e%03d", i)
		ft.Events = append(ft.Events, modelio.FTEvent{Name: name, Prob: p[i]})
		ft.Top.Children = append(ft.Top.Children, &modelio.GateSpec{Event: name})
	}
	body, err := json.Marshal(modelio.Spec{Type: "faulttree", Name: "voting bank", FaultTree: ft})
	if err != nil {
		return largeDoc{}, err
	}
	check := func(rs []modelio.Result) error {
		// Both sides are sums of nonnegative terms; 1e-9 relative is six
		// orders above their rounding.
		return within("k-of-n top vs Poisson-binomial", resultByMeasure(rs)["top"].Value, atLeastProb(p, sh.kofnK), 1e-9, true)
	}
	return largeDoc{class: "k-of-n", body: body, check: check}, nil
}

// genStiff is a chain of independent two-state components whose repair
// is five orders faster than failure, solved transiently over a horizon
// of stiffTerms uniformization steps. Independence gives each state's
// probability in closed form.
func genStiff(rng *rand.Rand, sh largeShape) (largeDoc, error) {
	n := 1 << sh.stiffComps
	lam := make([]float64, sh.stiffComps)
	mu := make([]float64, sh.stiffComps)
	var muSum float64
	for i := range lam {
		lam[i] = logUniform(rng, 1e-4, 1e-3)
		mu[i] = logUniform(rng, 10, 100)
		muSum += mu[i]
	}
	var ts []triple
	maxExit := 0.0
	for s := 0; s < n; s++ {
		var exit float64
		for i := 0; i < sh.stiffComps; i++ {
			if s&(1<<i) == 0 {
				ts = append(ts, triple{s, s | 1<<i, lam[i]})
				exit += lam[i]
			} else {
				ts = append(ts, triple{s, s &^ (1 << i), mu[i]})
				exit += mu[i]
			}
		}
		maxExit = math.Max(maxExit, exit)
	}
	t := sh.stiffTerms / maxExit
	name := func(s int) string { return fmt.Sprintf("x%02x", s) }
	body, err := ctmcDoc("stiff independent-repair array", name, ts, modelio.CTMCSpec{
		Initial: name(0), Time: t, Measures: []string{"transient"},
	})
	if err != nil {
		return largeDoc{}, err
	}
	check := func(rs []modelio.Result) error {
		down := make([]float64, sh.stiffComps)
		for i := range down {
			down[i] = twoStateDown(lam[i], mu[i], t)
		}
		got := resultByMeasure(rs)["transient"].Detail
		for s := 0; s < n; s++ {
			want := 1.0
			for i, d := range down {
				if s&(1<<i) != 0 {
					want *= d
				} else {
					want *= 1 - d
				}
			}
			// Poisson truncation is 1e-12; 1e-9 absolute allows the
			// rounding of 2e4 matrix–vector steps.
			if err := within("stiff transient p["+name(s)+"] vs product closed form", got[name(s)], want, 1e-9, false); err != nil {
				return err
			}
		}
		return nil
	}
	return largeDoc{class: "stiff-transient", body: body, check: check, n: n, trips: ts}, nil
}

// genRepairSPN is a GSPN of n independent repairable components, each
// an up/down place pair with its own fail and repair transitions, plus a
// place counting the failed components. Its reachability graph has 2^n
// tangible markings, and independence gives the mean number of failed
// components in closed form.
func genRepairSPN(rng *rand.Rand, sh largeShape) (largeDoc, error) {
	sp := &modelio.SPNSpec{
		Places:    []modelio.SPNPlace{{Name: "failed"}},
		Measures:  []string{"tokens:failed"},
		MaxStates: 2 << sh.spnComps,
	}
	var wantDown float64
	for i := 0; i < sh.spnComps; i++ {
		lam := logUniform(rng, 1e-3, 1e-2)
		mu := logUniform(rng, 0.5, 2)
		wantDown += lam / (lam + mu)
		up, down := fmt.Sprintf("up%02d", i), fmt.Sprintf("down%02d", i)
		fail, repair := fmt.Sprintf("fail%02d", i), fmt.Sprintf("repair%02d", i)
		sp.Places = append(sp.Places, modelio.SPNPlace{Name: up, Tokens: 1}, modelio.SPNPlace{Name: down})
		sp.Transitions = append(sp.Transitions,
			modelio.SPNTransition{Name: fail, Kind: "timed", Rate: lam},
			modelio.SPNTransition{Name: repair, Kind: "timed", Rate: mu})
		sp.Arcs = append(sp.Arcs,
			modelio.SPNArc{Kind: "input", Place: up, Transition: fail},
			modelio.SPNArc{Kind: "output", Place: down, Transition: fail},
			modelio.SPNArc{Kind: "output", Place: "failed", Transition: fail},
			modelio.SPNArc{Kind: "input", Place: down, Transition: repair},
			modelio.SPNArc{Kind: "input", Place: "failed", Transition: repair},
			modelio.SPNArc{Kind: "output", Place: up, Transition: repair})
	}
	body, err := json.Marshal(modelio.Spec{Type: "spn", Name: "independent repair net", SPN: sp})
	if err != nil {
		return largeDoc{}, err
	}
	check := func(rs []modelio.Result) error {
		// SOR stops on a 1e-12 sweep delta; 1e-9 relative on the mean
		// number failed leaves three orders for an honest convergence.
		return within("repair-net mean failed vs independent closed form", resultByMeasure(rs)["tokens:failed"].Value, wantDown, 1e-9, true)
	}
	return largeDoc{class: "repair-net", body: body, check: check}, nil
}
