// Package failpoint is a deterministic fault-injection registry with no
// dependencies beyond the leaf internal/splitmix generator. Code under
// test declares named failpoints by calling Inject (or InjectCtx) at
// interesting places — solver sweep boundaries, node allocation,
// request handling — and the call compiles down to one atomic load
// unless something armed the registry, so production binaries pay
// nothing for the instrumentation.
//
// A failpoint is armed with a spec string:
//
//	spec    := [trigger "->"] action
//	action  := "error" | "error(" msg ")"
//	         | "panic" | "panic(" msg ")"
//	         | "delay(" duration ")"
//	trigger := "1-in-" N            fire on every Nth evaluation (1st, N+1th, …)
//	         | "after(" N ")"       fire from the Nth evaluation on
//	         | "times(" N ")"       fire at most N times, then disarm the trigger
//	         | "p(" prob "," seed ")"  fire with probability prob from a
//	                                   seeded PRNG (splitmix64), so chaos
//	                                   runs replay bit-for-bit
//
// Multiple failpoints arm at once from a schedule string
// ("name:spec;name:spec", also accepted via the RELFAIL environment
// variable), which is how `relcli serve -failpoints` and `relcli chaos`
// drive the registry.
//
// The error action returns a *Error whose FailureClass is "injected" —
// guard fallback chains treat it as escalatable, so injection exercises
// the same degraded paths a real solver failure would. The panic action
// panics with a *Error value, exercising the guard panic-isolation
// boundaries. The delay action blocks (respecting the context in
// InjectCtx) to widen race windows and trip deadlines.
package failpoint

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
)

// ClassInjected is the guard failure class carried by injected errors.
// Declared here (guard mirrors it) so this package need not import guard.
const ClassInjected = "injected"

// Error is the typed error returned (or panicked) by a tripped failpoint.
type Error struct {
	// Name is the failpoint that tripped.
	Name string
	// Msg is the optional message from the spec.
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("failpoint %s: %s", e.Name, e.Msg)
	}
	return fmt.Sprintf("failpoint %s tripped", e.Name)
}

// FailureClass implements guard.Classed so fallback chains escalate past
// an injected failure the way they escalate past a real one.
func (e *Error) FailureClass() string { return ClassInjected }

// action is what a tripped failpoint does.
type actionKind int

const (
	actError actionKind = iota
	actPanic
	actDelay
)

// point is one armed failpoint.
type point struct {
	name string
	spec string

	action actionKind
	msg    string
	delay  time.Duration

	// Trigger state. calls counts evaluations, trips counts firings; both
	// are read by Stats for chaos-run reporting.
	mu     sync.Mutex
	everyN int64 // 1-in-N (0 = always)
	after  int64 // fire from this evaluation on (0 = always)
	times  int64 // max firings (0 = unlimited)
	prob   float64
	seeded bool
	prng   uint64 // splitmix64 state
	calls  int64
	trips  int64
}

// registry is the process-global failpoint table. armedCount gates the
// Inject fast path: zero armed failpoints means Inject is one atomic load
// and a return.
var (
	regMu      sync.RWMutex
	registry   = map[string]*point{}
	armedCount atomic.Int32
	onTrip     atomic.Value // func(name string)
)

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "RELFAIL"

// SetOnTrip installs a hook called with the failpoint name on every trip
// (nil clears it). The serve layer uses it to count trips in the metrics
// registry without this package importing it.
func SetOnTrip(fn func(name string)) {
	if fn == nil {
		onTrip.Store((func(string))(nil))
		return
	}
	onTrip.Store(fn)
}

// Arm arms (or re-arms) one failpoint from a spec string.
func Arm(name, spec string) error {
	if name == "" {
		return fmt.Errorf("failpoint: empty name")
	}
	p, err := parseSpec(name, spec)
	if err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[name]; !exists {
		armedCount.Add(1)
	}
	registry[name] = p
	return nil
}

// Disarm removes one failpoint; unknown names are a no-op.
func Disarm(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[name]; exists {
		delete(registry, name)
		armedCount.Add(-1)
	}
}

// Reset disarms everything. Tests and the chaos harness call it in
// cleanup so stray failpoints cannot leak across runs.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for name := range registry {
		delete(registry, name)
		armedCount.Add(-1)
	}
}

// ArmSchedule arms every "name:spec" pair in a ;-separated schedule.
func ArmSchedule(schedule string) error {
	for _, entry := range strings.Split(schedule, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, ":")
		if !ok {
			return fmt.Errorf("failpoint: schedule entry %q is not name:spec", entry)
		}
		if err := Arm(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// ArmFromEnv arms the schedule in $RELFAIL, returning how many failpoints
// it armed. An unset or empty variable arms nothing.
func ArmFromEnv(getenv func(string) string) (int, error) {
	schedule := getenv(EnvVar)
	if schedule == "" {
		return 0, nil
	}
	before := int(armedCount.Load())
	if err := ArmSchedule(schedule); err != nil {
		return 0, err
	}
	return int(armedCount.Load()) - before, nil
}

// Status reports one armed failpoint's configuration and counters.
type Status struct {
	Name  string `json:"name"`
	Spec  string `json:"spec"`
	Calls int64  `json:"calls"`
	Trips int64  `json:"trips"`
}

// Stats lists every armed failpoint sorted by name.
func Stats() []Status {
	regMu.RLock()
	out := make([]Status, 0, len(registry))
	for _, p := range registry {
		p.mu.Lock()
		out = append(out, Status{Name: p.name, Spec: p.spec, Calls: p.calls, Trips: p.trips})
		p.mu.Unlock()
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Inject evaluates the named failpoint. When nothing is armed it costs a
// single atomic load. An armed point that triggers either returns a
// *Error, panics with one, or delays and returns nil, per its action.
func Inject(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return inject(name, nil)
}

// InjectCtx is Inject with a cancellable delay: a delay action waits on a
// timer or ctx.Done, whichever fires first, and returns nil either way
// (the interrupted caller sees its own context error at the next guard
// check).
func InjectCtx(ctx context.Context, name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	return inject(name, done)
}

func inject(name string, done <-chan struct{}) error {
	regMu.RLock()
	p := registry[name]
	regMu.RUnlock()
	if p == nil || !p.fire() {
		return nil
	}
	if fn, _ := onTrip.Load().(func(string)); fn != nil {
		fn(name)
	}
	switch p.action {
	case actPanic:
		panic(&Error{Name: name, Msg: p.msg}) //numvet:allow panic the panic action exists to exercise guard panic isolation
	case actDelay:
		timer := time.NewTimer(p.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-done:
		}
		return nil
	default:
		return &Error{Name: name, Msg: p.msg}
	}
}

// fire advances the trigger state and reports whether the point trips on
// this evaluation.
func (p *point) fire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.times > 0 && p.trips >= p.times {
		return false
	}
	if p.after > 0 && p.calls < p.after {
		return false
	}
	if p.everyN > 1 && (p.calls-1)%p.everyN != 0 {
		return false
	}
	if p.seeded {
		p.prng = splitmix.Next(p.prng)
		// Top 53 bits → uniform float in [0,1).
		if float64(p.prng>>11)/(1<<53) >= p.prob {
			return false
		}
	}
	p.trips++
	return true
}

// parseSpec compiles one spec string into a point.
func parseSpec(name, spec string) (*point, error) {
	p := &point{name: name, spec: spec}
	rest := strings.TrimSpace(spec)
	if trigger, action, ok := strings.Cut(rest, "->"); ok {
		if err := p.parseTrigger(strings.TrimSpace(trigger)); err != nil {
			return nil, err
		}
		rest = strings.TrimSpace(action)
	}
	if err := p.parseAction(rest); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *point) parseTrigger(s string) error {
	switch {
	case strings.HasPrefix(s, "1-in-"):
		n, err := strconv.ParseInt(s[len("1-in-"):], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failpoint %s: bad trigger %q (want 1-in-N, N >= 1)", p.name, s)
		}
		p.everyN = n
	case strings.HasPrefix(s, "after(") && strings.HasSuffix(s, ")"):
		n, err := strconv.ParseInt(s[len("after("):len(s)-1], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failpoint %s: bad trigger %q (want after(N), N >= 1)", p.name, s)
		}
		p.after = n
	case strings.HasPrefix(s, "times(") && strings.HasSuffix(s, ")"):
		n, err := strconv.ParseInt(s[len("times("):len(s)-1], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failpoint %s: bad trigger %q (want times(N), N >= 1)", p.name, s)
		}
		p.times = n
	case strings.HasPrefix(s, "p(") && strings.HasSuffix(s, ")"):
		probStr, seedStr, ok := strings.Cut(s[len("p("):len(s)-1], ",")
		if !ok {
			return fmt.Errorf("failpoint %s: bad trigger %q (want p(prob,seed))", p.name, s)
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("failpoint %s: bad probability in %q (want [0,1])", p.name, s)
		}
		seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
		if err != nil {
			return fmt.Errorf("failpoint %s: bad seed in %q", p.name, s)
		}
		p.prob, p.seeded, p.prng = prob, true, seed
	default:
		return fmt.Errorf("failpoint %s: unknown trigger %q", p.name, s)
	}
	return nil
}

func (p *point) parseAction(s string) error {
	arg := func(prefix string) (string, bool) {
		if strings.HasPrefix(s, prefix+"(") && strings.HasSuffix(s, ")") {
			return s[len(prefix)+1 : len(s)-1], true
		}
		return "", false
	}
	switch {
	case s == "error":
		p.action = actError
	case s == "panic":
		p.action = actPanic
	default:
		if msg, ok := arg("error"); ok {
			p.action, p.msg = actError, msg
			return nil
		}
		if msg, ok := arg("panic"); ok {
			p.action, p.msg = actPanic, msg
			return nil
		}
		if ds, ok := arg("delay"); ok {
			d, err := time.ParseDuration(ds)
			if err != nil || d < 0 {
				return fmt.Errorf("failpoint %s: bad delay %q", p.name, ds)
			}
			p.action, p.delay = actDelay, d
			return nil
		}
		return fmt.Errorf("failpoint %s: unknown action %q (want error, panic, delay(d))", p.name, s)
	}
	return nil
}
