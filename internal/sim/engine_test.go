package sim

import "testing"

// beacon fires work every `period` cycles for `count` pulses, tracking the
// cycles at which it was stepped with work available.
type beacon struct {
	period, count Cycle
	fired         []Cycle
	stepped       Cycle // total Step calls
}

func (p *beacon) Step(now Cycle) {
	p.stepped++
	if Cycle(len(p.fired)) < p.count && now%p.period == 0 {
		p.fired = append(p.fired, now)
	}
}

func (p *beacon) NextEvent(now Cycle) Cycle {
	if Cycle(len(p.fired)) >= p.count {
		return Never
	}
	if now%p.period == 0 {
		return now
	}
	return now + (p.period - now%p.period)
}

// TestEngineMatchesStepEveryCycle pins the core contract: a wake-queue run
// and a StepEveryCycle run produce identical elapsed cycles and identical
// event times, while the wake-queue run steps far fewer times.
func TestEngineMatchesStepEveryCycle(t *testing.T) {
	mk := func() *beacon { return &beacon{period: 100, count: 5} }

	exh := mk()
	ref := NewEngine()
	ref.StepEveryCycle()
	ref.Register(exh)
	exhElapsed, ok := ref.Run(func() bool { return Cycle(len(exh.fired)) >= exh.count }, 10_000)
	if !ok {
		t.Fatal("exhaustive run did not finish")
	}
	if exh.stepped != exhElapsed {
		t.Fatalf("StepEveryCycle stepped %d times over %d cycles", exh.stepped, exhElapsed)
	}

	ev := mk()
	eng := NewEngine()
	eng.Register(ev)
	evElapsed, ok := eng.Run(func() bool { return Cycle(len(ev.fired)) >= ev.count }, 10_000)
	if !ok {
		t.Fatal("engine run did not finish")
	}

	if exhElapsed != evElapsed {
		t.Fatalf("elapsed diverged: exhaustive %d, evented %d", exhElapsed, evElapsed)
	}
	if len(exh.fired) != len(ev.fired) {
		t.Fatalf("fire counts diverged: %v vs %v", exh.fired, ev.fired)
	}
	for i := range exh.fired {
		if exh.fired[i] != ev.fired[i] {
			t.Fatalf("fire %d diverged: %d vs %d", i, exh.fired[i], ev.fired[i])
		}
	}
	if ev.stepped >= exh.stepped/10 {
		t.Fatalf("engine should skip the dead cycles: %d steps vs exhaustive %d", ev.stepped, exh.stepped)
	}
}

// TestEngineLimit pins limit semantics: a machine that never finishes
// reports elapsed == limit and ok == false, even when every component
// reports Never (the jump clamps to the limit).
func TestEngineLimit(t *testing.T) {
	idle := &beacon{period: 1, count: 0} // immediately done firing: Never
	e := NewEngine()
	e.Register(idle)
	elapsed, ok := e.Run(func() bool { return false }, 500)
	if ok || elapsed != 500 {
		t.Fatalf("elapsed %d ok %v, want 500 false", elapsed, ok)
	}
}

// TestEngineTickOrder: components due on the same tick step in
// registration order under both schedules, and a run whose predicate
// already holds costs zero cycles.
func TestEngineTickOrder(t *testing.T) {
	for _, everyCycle := range []bool{false, true} {
		e := NewEngine()
		if everyCycle {
			e.StepEveryCycle()
		}
		var order []int
		for i := 0; i < 5; i++ {
			e.Register(&StepFunc{Fn: func(Cycle) { order = append(order, i) }})
		}
		if elapsed, ok := e.Run(func() bool { return true }, 100); !ok || elapsed != 0 || len(order) != 0 {
			t.Fatalf("everyCycle=%v: finished run took %d cycles, ok %v, %d steps", everyCycle, elapsed, ok, len(order))
		}
		e.Run(func() bool { return len(order) >= 5 }, 100)
		for i, v := range order {
			if v != i {
				t.Fatalf("everyCycle=%v: stepped out of registration order: %v", everyCycle, order)
			}
		}
	}
}

// TestEngineBusyHorizon: with all components reporting Never but a busy
// horizon ahead, the jump lands on the horizon, where done can first hold.
func TestEngineBusyHorizon(t *testing.T) {
	idle := &beacon{period: 1, count: 0}
	e := NewEngine()
	e.Register(idle)
	e.NoteBusy(300)
	elapsed, ok := e.Run(func() bool { return e.Now() >= 300 }, 10_000)
	if !ok || elapsed != 300 {
		t.Fatalf("elapsed %d ok %v, want 300 true", elapsed, ok)
	}
}

// TestEngineStride pins the Connection Machine sequencer semantics: each
// tick costs a full word time.
func TestEngineStride(t *testing.T) {
	p := &beacon{period: 1, count: 3}
	e := NewEngine()
	e.SetStride(16)
	e.Register(p)
	elapsed, ok := e.Run(func() bool { return Cycle(len(p.fired)) >= 3 }, 1_000)
	if !ok || elapsed != 48 {
		t.Fatalf("elapsed %d ok %v, want 48 true", elapsed, ok)
	}
}

// TestEngineAdvance: out-of-run time warps (SIMD compute instructions)
// move Now without stepping components.
func TestEngineAdvance(t *testing.T) {
	p := &beacon{period: 1, count: 0}
	e := NewEngine()
	e.Register(p)
	e.Advance(64)
	if e.Now() != 64 {
		t.Fatalf("now %d, want 64", e.Now())
	}
	if p.stepped != 0 {
		t.Fatal("Advance must not step components")
	}
}

// settleProbe records Settle calls.
type settleProbe struct {
	beacon
	settledThrough Cycle
}

func (s *settleProbe) Settle(through Cycle) { s.settledThrough = through }

// TestEngineSettlesOnExit: Run must settle statistics through the final
// cycle on both the success and the limit path.
func TestEngineSettlesOnExit(t *testing.T) {
	s := &settleProbe{beacon: beacon{period: 50, count: 2}}
	e := NewEngine()
	e.Register(s)
	elapsed, ok := e.Run(func() bool { return len(s.fired) >= 2 }, 10_000)
	if !ok {
		t.Fatal("did not finish")
	}
	if s.settledThrough != elapsed {
		t.Fatalf("settled through %d, want %d", s.settledThrough, elapsed)
	}
}

// sleeper parks itself until an external Wake delivers work: its NextEvent
// is Never while the inbox is empty, so only the wake-queue can revive it.
type sleeper struct {
	inbox   []Cycle // cycles work was handed over
	handled []Cycle // cycles work was processed
	stepped Cycle
	waker   Waker
}

func (s *sleeper) Attach(w Waker) { s.waker = w }

func (s *sleeper) Step(now Cycle) {
	s.stepped++
	if len(s.inbox) > 0 {
		s.handled = append(s.handled, now)
		s.inbox = s.inbox[1:]
	}
}

func (s *sleeper) NextEvent(now Cycle) Cycle {
	if len(s.inbox) == 0 {
		return Never
	}
	return now
}

// feeder hands the sleeper one item at fixed times, waking it through the
// engine exactly as a memory hands a core its completed load.
type feeder struct {
	times []Cycle
	dst   *sleeper
	waker Waker
}

func (f *feeder) Attach(w Waker) { f.waker = w }

func (f *feeder) Step(now Cycle) {
	for len(f.times) > 0 && f.times[0] <= now {
		f.times = f.times[:copy(f.times, f.times[1:])]
		f.dst.inbox = append(f.dst.inbox, now)
		f.waker.Wake(f.dst, now)
	}
}

func (f *feeder) NextEvent(now Cycle) Cycle {
	if len(f.times) == 0 {
		return Never
	}
	if t := f.times[0]; t > now {
		return t
	}
	return now
}

// TestEngineWakeRevivesParkedComponent pins the Wake API: a component
// whose NextEvent answered Never is revived by an external Wake, steps at
// exactly the wake cycle, and costs zero steps while parked.
func TestEngineWakeRevivesParkedComponent(t *testing.T) {
	dst := &sleeper{}
	src := &feeder{times: []Cycle{40, 41, 900}, dst: dst}
	e := NewEngine()
	e.Register(src)
	e.Register(dst)
	_, ok := e.Run(func() bool { return len(dst.handled) >= 3 }, 10_000)
	if !ok {
		t.Fatal("run did not finish")
	}
	want := []Cycle{40, 41, 900}
	for i, w := range want {
		if dst.handled[i] != w {
			t.Fatalf("handled[%d] = %d, want %d (all: %v)", i, dst.handled[i], w, dst.handled)
		}
	}
	if dst.stepped > 4 {
		t.Fatalf("parked component stepped %d times; wake-queue should bound it near 3", dst.stepped)
	}
	c := e.Counters()
	if c.WakesEnqueued == 0 {
		t.Fatal("no wakes were counted")
	}
	if c.CyclesSkipped == 0 {
		t.Fatal("no cycles were skipped despite an 859-cycle idle gap")
	}
	if c.StepsExecuted == 0 {
		t.Fatal("no steps were counted")
	}
}

// TestEngineWakeSameCycleLaterComponent: waking a later-registered
// component at the current cycle, from inside a tick, must step it in the
// same tick — the exhaustive engine's same-cycle visibility rule.
func TestEngineWakeSameCycleLaterComponent(t *testing.T) {
	dst := &sleeper{}
	src := &feeder{times: []Cycle{7}, dst: dst}
	e := NewEngine()
	e.Register(src)
	e.Register(dst)
	_, ok := e.Run(func() bool { return len(dst.handled) >= 1 }, 100)
	if !ok {
		t.Fatal("run did not finish")
	}
	if dst.handled[0] != 7 {
		t.Fatalf("handled at %d, want the same cycle the feeder fired (7)", dst.handled[0])
	}
}

// TestEngineWakeUnregisteredPanics: waking a component the engine does not
// own is a wiring bug and must fail loudly.
func TestEngineWakeUnregisteredPanics(t *testing.T) {
	e := NewEngine()
	e.Register(&sleeper{})
	defer func() {
		if recover() == nil {
			t.Fatal("Wake on an unregistered component did not panic")
		}
	}()
	e.Wake(&sleeper{}, 0)
}

// plain has Step but no NextEvent.
type plain struct{}

func (plain) Step(Cycle) {}

// TestEngineRejectsNonEventAware: a component without NextEvent has no
// place on the wake queue, so registering one is a wiring bug.
func TestEngineRejectsNonEventAware(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted a component that is not EventAware")
		}
	}()
	NewEngine().Register(plain{})
}

// liar does work every `period` cycles, but its NextEvent claims it holds
// none unless honest is set — a NextEvent that breaks the honesty
// contract.
type liar struct {
	period Cycle
	honest bool
	work   []Cycle
}

func (l *liar) Step(now Cycle) {
	if now%l.period == 0 {
		l.work = append(l.work, now)
	}
}

func (l *liar) NextEvent(now Cycle) Cycle {
	if !l.honest {
		return Never
	}
	return now + l.period - now%l.period
}

// TestStepEveryCycleCatchesDishonesty proves the honesty checks' reference
// arm has teeth: a component whose NextEvent hides work makes the
// wake-queue run diverge from the StepEveryCycle run, while the same
// component answering honestly makes the two agree.
func TestStepEveryCycleCatchesDishonesty(t *testing.T) {
	run := func(honest, everyCycle bool) []Cycle {
		l := &liar{period: 10, honest: honest}
		e := NewEngine()
		if everyCycle {
			e.StepEveryCycle()
		}
		e.Register(l)
		// An honest neighbour keeps the wake queue armed; with nothing
		// armed at all the engine degrades to ticking every cycle.
		e.Register(&beacon{period: 50, count: 10})
		e.Run(func() bool { return false }, 100)
		return l.work
	}
	same := func(a, b []Cycle) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if ref, got := run(false, true), run(false, false); same(ref, got) {
		t.Fatalf("dishonest component: wake-queue run %v matches the reference %v", got, ref)
	}
	if ref, got := run(true, true), run(true, false); !same(ref, got) {
		t.Fatalf("honest component: wake-queue run %v, reference %v", got, ref)
	}
}
