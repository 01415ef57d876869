package simtest

import "repro/internal/sim"

// IdleSkipper wraps an event-aware component and suppresses Step calls on
// cycles the component's own NextEvent answer declares idle. It is the
// test harness for the second half of the NextEvent honesty contract:
//
//	if NextEvent(now) > now, then Step(now) must be a no-op.
//
// Registering the wrapper in a component's place on an engine stepping
// every cycle (sim.Engine.StepEveryCycle) and comparing every observable
// against an unwrapped run proves the contract directly — if any
// suppressed Step would have done work, cycle counts or statistics
// diverge. Skipped counts how many
// Steps were suppressed, so tests can assert the property was actually
// exercised rather than vacuously true.
//
// The wrapper also implements sim.Waker and attaches itself to Wakeable
// components, because the contract is two-sided: mutation entry points
// (Request, Send) settle lazily-accounted statistics through their waker
// before changing state, and a harness without a waker would sample
// jumped-over cycles at the post-mutation level. Wrap a component only
// after any pre-run requests are queued, exactly as an engine attaches
// before its run, not before setup.
type IdleSkipper struct {
	Inner   sim.EventAware
	Skipped uint64
	now     sim.Cycle
}

// NewIdleSkipper wraps inner, attaching itself as the waker when inner is
// Wakeable.
func NewIdleSkipper(inner sim.EventAware) *IdleSkipper {
	s := &IdleSkipper{Inner: inner}
	if w, ok := inner.(sim.Wakeable); ok {
		w.Attach(s)
	}
	return s
}

// Step forwards to the inner component only on cycles its NextEvent answer
// admits it can act.
func (s *IdleSkipper) Step(now sim.Cycle) {
	s.now = now
	if s.Inner.NextEvent(now) > now {
		s.Skipped++
		return
	}
	s.Inner.Step(now)
}

// NextEvent forwards the inner answer.
func (s *IdleSkipper) NextEvent(now sim.Cycle) sim.Cycle {
	return s.Inner.NextEvent(now)
}

// Settle settles the inner component's lazily-accounted statistics.
// sim.Engine.Run calls it on exit, as it does for every Settler.
func (s *IdleSkipper) Settle(through sim.Cycle) {
	if st, ok := s.Inner.(sim.Settler); ok {
		st.Settle(through)
	}
}

// Now reports the wrapper's clock: the cycle of its last Step. During a
// tick this matches sim.Engine.Now for callers registered after the
// wrapped component (the common Request direction).
func (s *IdleSkipper) Now() sim.Cycle { return s.now }

// SlotNow reports the cycle the component last held its step slot, exactly
// as the engine's staleness rule defines it: s.now is the wrapper's last
// Step cycle, whether or not the inner Step was suppressed.
func (s *IdleSkipper) SlotNow(c sim.Component) sim.Cycle { return s.now }

// Wake settles the inner component through its step-slot boundary — the
// engine's pre-mutation settlement rule. The wake time itself is
// irrelevant here: exhaustive stepping polls NextEvent every cycle anyway.
// If the wrapper already ran this cycle, its slot for this cycle is spent
// and jumped-over samples settle through now+1; if it has not yet run,
// s.now is the previous cycle and settlement stops one cycle earlier,
// leaving the current cycle to the upcoming Step.
func (s *IdleSkipper) Wake(c sim.Component, at sim.Cycle) { s.Settle(s.now + 1) }

var (
	_ sim.EventAware = (*IdleSkipper)(nil)
	_ sim.Waker      = (*IdleSkipper)(nil)
)
