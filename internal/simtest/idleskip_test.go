package simtest

import (
	"testing"

	"repro/internal/sim"
)

// pulse is an honest EventAware component: it does work every `period`
// cycles, reports exactly those cycles from NextEvent, and is a no-op in
// between — the contract IdleSkipper exists to exercise.
type pulse struct {
	period sim.Cycle
	work   uint64
	steps  uint64
}

func (p *pulse) Step(now sim.Cycle) {
	p.steps++
	if now%p.period == 0 {
		p.work++
	}
}

func (p *pulse) NextEvent(now sim.Cycle) sim.Cycle {
	if now%p.period == 0 {
		return now
	}
	return now + (p.period - now%p.period)
}

// liar claims to be idle until the far future but mutates state on every
// Step — the NextEvent-honesty violation IdleSkipper is built to expose.
type liar struct {
	work uint64
}

func (l *liar) Step(now sim.Cycle) { l.work++ }

func (l *liar) NextEvent(now sim.Cycle) sim.Cycle { return now + 1000 }

// settler records Settle calls (sim.Settler) and its attached waker
// (sim.Wakeable).
type settler struct {
	pulse
	settledThrough sim.Cycle
	waker          sim.Waker
}

func (s *settler) Settle(through sim.Cycle) { s.settledThrough = through }
func (s *settler) Attach(w sim.Waker)       { s.waker = w }

// drive steps c exhaustively for cycles [0, n).
func drive(c sim.Component, n sim.Cycle) {
	for now := sim.Cycle(0); now < n; now++ {
		c.Step(now)
	}
}

func TestIdleSkipperSuppressesDeclaredIdleSteps(t *testing.T) {
	inner := &pulse{period: 5}
	sk := NewIdleSkipper(inner)
	drive(sk, 100)

	// The inner component acts on cycles 0, 5, ..., 95: 20 of 100.
	if inner.steps != 20 {
		t.Fatalf("inner stepped %d times, want 20", inner.steps)
	}
	if inner.work != 20 {
		t.Fatalf("inner did %d units of work, want 20", inner.work)
	}
	if sk.Skipped != 80 {
		t.Fatalf("Skipped = %d, want 80", sk.Skipped)
	}
}

func TestIdleSkipperMatchesUnwrappedRunForHonestComponent(t *testing.T) {
	plain := &pulse{period: 7}
	drive(plain, 200)

	wrapped := &pulse{period: 7}
	sk := NewIdleSkipper(wrapped)
	drive(sk, 200)

	// Every observable of an honest component is preserved; only the
	// wasted no-op Steps disappear.
	if wrapped.work != plain.work {
		t.Fatalf("wrapped work %d != plain work %d", wrapped.work, plain.work)
	}
	if sk.Skipped == 0 {
		t.Fatal("vacuous run: nothing was skipped")
	}
	if wrapped.steps+sk.Skipped != plain.steps {
		t.Fatalf("steps(%d) + skipped(%d) != exhaustive steps(%d)",
			wrapped.steps, sk.Skipped, plain.steps)
	}
}

// TestIdleSkipperExposesDishonestComponent is the failure mode: feed the
// wrapper a component whose NextEvent lies about idleness. The wrapper
// believes the declaration, suppresses the Steps, and the component's
// observables diverge from an unwrapped run — exactly the divergence
// that makes the honesty property tests fail instead of silently
// passing over a broken NextEvent.
func TestIdleSkipperExposesDishonestComponent(t *testing.T) {
	plain := &liar{}
	drive(plain, 100)
	if plain.work != 100 {
		t.Fatalf("unwrapped liar did %d units of work, want 100", plain.work)
	}

	wrapped := &liar{}
	sk := NewIdleSkipper(wrapped)
	drive(sk, 100)

	// NextEvent(now) = now+1000 on every cycle, so the wrapper suppresses
	// every Step and all the liar's work is lost.
	if wrapped.work != 0 {
		t.Fatalf("wrapper executed %d Steps of a component that declared itself idle", wrapped.work)
	}
	if sk.Skipped != 100 {
		t.Fatalf("Skipped = %d, want 100", sk.Skipped)
	}
	if wrapped.work == plain.work {
		t.Fatal("dishonesty was not observable: wrapped and unwrapped runs agree")
	}
}

func TestIdleSkipperForwardsNextEvent(t *testing.T) {
	sk := NewIdleSkipper(&pulse{period: 4})
	if got := sk.NextEvent(3); got != 4 {
		t.Fatalf("NextEvent(3) = %d, want 4", got)
	}
	if got := sk.NextEvent(8); got != 8 {
		t.Fatalf("NextEvent(8) = %d, want 8", got)
	}
}

func TestIdleSkipperAttachesAsWakerAndSettles(t *testing.T) {
	inner := &settler{pulse: pulse{period: 3}}
	sk := NewIdleSkipper(inner)
	if inner.waker != sim.Waker(sk) {
		t.Fatal("NewIdleSkipper did not attach itself to a Wakeable inner")
	}

	drive(sk, 10) // wrapper clock now 9
	if got := sk.Now(); got != 9 {
		t.Fatalf("Now() = %d, want 9", got)
	}
	if got := sk.SlotNow(inner); got != 9 {
		t.Fatalf("SlotNow() = %d, want 9", got)
	}

	// Wake settles the inner component through the step-slot boundary
	// (now+1), the engine's pre-mutation settlement rule.
	sk.Wake(inner, 42)
	if inner.settledThrough != 10 {
		t.Fatalf("Wake settled through %d, want 10", inner.settledThrough)
	}

	// Explicit Settle forwards verbatim (the post-run settlement
	// sim.Engine.Run performs).
	sk.Settle(123)
	if inner.settledThrough != 123 {
		t.Fatalf("Settle(123) settled through %d", inner.settledThrough)
	}
}
