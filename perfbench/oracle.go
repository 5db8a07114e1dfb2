package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/modelio"
)

// The independent answers the benchmark scores the program against. None
// of them goes through modelio or markov: closed forms, a dynamic
// program, or the linalg kernels fed from the generator's own triples.

// birthDeathPi is the product-form stationary vector of an n-state
// birth–death chain with constant birth/death ratio rho:
// π_i = (1-ρ)ρ^i / (1-ρ^n).
func birthDeathPi(n int, rho float64) []float64 {
	pi := make([]float64, n)
	norm := (1 - rho) / (1 - math.Pow(rho, float64(n)))
	for i := range pi {
		pi[i] = norm * math.Pow(rho, float64(i))
	}
	return pi
}

// atLeastProb is P(at least k of the independent events occur) by the
// Poisson-binomial dynamic program over the count distribution.
func atLeastProb(p []float64, k int) float64 {
	dist := make([]float64, len(p)+1)
	dist[0] = 1
	for i, pi := range p {
		for c := i + 1; c >= 1; c-- {
			dist[c] = dist[c]*(1-pi) + dist[c-1]*pi
		}
		dist[0] *= 1 - pi
	}
	var sum float64
	for c := k; c <= len(p); c++ {
		sum += dist[c]
	}
	return sum
}

// twoStateDown is P(down at t) for a component that starts up, fails at
// lambda and is repaired at mu, independently of everything else.
func twoStateDown(lambda, mu, t float64) float64 {
	s := lambda + mu
	return lambda / s * -math.Expm1(-s*t)
}

// triple is one off-diagonal generator entry in state-index form.
type triple struct {
	from, to int
	rate     float64
}

// gthReference solves πQ = 0 exactly with GTH on a generator assembled
// straight from the triples.
func gthReference(n int, ts []triple) ([]float64, error) {
	coo := linalg.NewCOO(n, n)
	diag := make([]float64, n)
	for _, t := range ts {
		if err := coo.Add(t.from, t.to, t.rate); err != nil {
			return nil, err
		}
		diag[t.from] -= t.rate
	}
	for i, d := range diag {
		if err := coo.Add(i, i, d); err != nil {
			return nil, err
		}
	}
	return linalg.GTHCSR(coo.ToCSR())
}

// residualInf returns ‖πQ‖∞ divided by the largest exit rate, for a
// generator given as triples and π as a vector.
func residualInf(pi []float64, ts []triple) float64 {
	r := make([]float64, len(pi))
	var maxExit float64
	exit := make([]float64, len(pi))
	for _, t := range ts {
		r[t.to] += pi[t.from] * t.rate
		r[t.from] -= pi[t.from] * t.rate
		exit[t.from] += t.rate
	}
	var worst float64
	for i, x := range r {
		worst = math.Max(worst, math.Abs(x))
		maxExit = math.Max(maxExit, exit[i])
	}
	return worst / maxExit
}

// within reports an error when got is farther than tol from want, with
// tol absolute when rel is false and relative to |want| otherwise.
func within(what string, got, want, tol float64, rel bool) error {
	diff := math.Abs(got - want)
	limit := tol
	if rel {
		limit = tol * math.Abs(want)
	}
	if !(diff <= limit) {
		return fmt.Errorf("%s: got %.17g, want %.17g (|diff| %.3g > %.3g)", what, got, want, diff, limit)
	}
	return nil
}

// resultByMeasure indexes solver results by measure name.
func resultByMeasure(rs []modelio.Result) map[string]modelio.Result {
	out := make(map[string]modelio.Result, len(rs))
	for _, r := range rs {
		out[r.Measure] = r
	}
	return out
}

// sameResults reports whether two result lists agree bit for bit: same
// measures in the same order, identical values, details and sets.
func sameResults(a, b []modelio.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Measure != y.Measure {
			return fmt.Errorf("result %d is %q, want %q", i, x.Measure, y.Measure)
		}
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return fmt.Errorf("%s = %.17g, want %.17g", x.Measure, x.Value, y.Value)
		}
		if len(x.Detail) != len(y.Detail) {
			return fmt.Errorf("%s has %d detail entries, want %d", x.Measure, len(x.Detail), len(y.Detail))
		}
		for k, v := range y.Detail {
			if w, ok := x.Detail[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				return fmt.Errorf("%s[%s] = %.17g, want %.17g", x.Measure, k, w, v)
			}
		}
		if fmt.Sprint(x.Sets) != fmt.Sprint(y.Sets) {
			return fmt.Errorf("%s sets differ", x.Measure)
		}
		if (x.Bound == nil) != (y.Bound == nil) || x.Bound != nil && *x.Bound != *y.Bound {
			return fmt.Errorf("%s bounds differ", x.Measure)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
