// Package sim provides the deterministic simulation kernel shared by every
// machine model in this repository: Engine, the wake-queue scheduler that
// alone advances simulated time, the checkpoint codec, and a seeded
// pseudo-random number generator so that all experiments are reproducible
// run-to-run.
package sim

import "math"

// Cycle is a point in simulated time, measured in machine cycles.
type Cycle uint64

// Never is the sentinel "no pending event" cycle: later than any real
// simulated time. Event-aware components return it from NextEvent when
// they hold no work at all.
const Never = Cycle(math.MaxUint64)

// Component is a piece of synchronous hardware. On every cycle it is due,
// the engine calls Step exactly once with the current time. Components
// must not assume any particular ordering relative to other components
// within a cycle; anything that needs strict phase ordering should be
// registered as separate components in the desired order.
type Component interface {
	Step(now Cycle)
}

// EventAware is the interface every component registered with an Engine
// implements. A component reports from NextEvent when its next state
// change can possibly happen: `now` means "step me this cycle", a future
// cycle means "stepping me before then is a no-op", and Never means "I
// hold no work".
type EventAware interface {
	Component
	NextEvent(now Cycle) Cycle
}

// StepFunc adapts an ordinary function to an EventAware component that is
// due every cycle. Register it by pointer: the engine keys components by
// identity, and func values are not comparable.
type StepFunc struct {
	Fn func(now Cycle)
}

// Step calls Fn(now).
func (f *StepFunc) Step(now Cycle) { f.Fn(now) }

// NextEvent reports now: a StepFunc is always due.
func (f *StepFunc) NextEvent(now Cycle) Cycle { return now }
