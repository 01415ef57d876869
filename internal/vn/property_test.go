package vn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// These property tests pin the contract that makes the event-driven
// sim.Engine trustworthy: for any program, running the very same core and
// memory under exhaustive per-cycle stepping (sim.Engine.StepEveryCycle)
// and under evented execution (the engine's wake queue) must produce
// identical cycle counts and statistics. A component whose NextEvent lies
// — reporting a later cycle than the one where it would actually act, or
// failing to settle gauge samples across a jump — shows up here as a
// divergence.

// randomProgram emits a bounded loop whose body is a random mix of ALU and
// memory operations. r1 holds the (never-written) memory base, r4 the loop
// counter; the body writes only scratch registers r2/r3/r5/r6 so addresses
// stay non-negative and the loop always terminates.
func randomProgram(rng *sim.RNG) string {
	var b strings.Builder
	scratch := func() int { return []int{2, 3, 5, 6}[rng.Intn(4)] }
	src := func() int { return rng.Intn(7) } // r0..r6
	alu := []string{"add", "sub", "mul", "and", "or", "xor", "slt", "sle", "seq"}
	b.WriteString("loop:\n")
	body := 2 + rng.Intn(6)
	for i := 0; i < body; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			fmt.Fprintf(&b, "  %s r%d, r%d, r%d\n", alu[rng.Intn(len(alu))], scratch(), src(), src())
		case 3:
			fmt.Fprintf(&b, "  addi r%d, r%d, %d\n", scratch(), src(), rng.Intn(32)-8)
		case 4, 5:
			fmt.Fprintf(&b, "  ld r%d, r1, %d\n", scratch(), rng.Intn(16))
		case 6, 7:
			fmt.Fprintf(&b, "  st r%d, r1, %d\n", src(), rng.Intn(16))
		case 8:
			fmt.Fprintf(&b, "  faa r%d, r1, r%d\n", scratch(), src())
		default:
			fmt.Fprintf(&b, "  tas r%d, r1\n", scratch())
		}
	}
	b.WriteString("  addi r4, r4, -1\n")
	b.WriteString("  bne r4, r0, loop\n")
	b.WriteString("  halt\n")
	return b.String()
}

// vnOutcome is everything observable about a run; it must be identical
// under exhaustive and evented execution.
type vnOutcome struct {
	elapsed  sim.Cycle
	ok       bool
	busy     uint64
	idle     uint64
	memOps   uint64
	memWait  uint64
	switches uint64
	retired  uint64
	served   uint64
	qMax     int64
	qMean    float64
	checksum Word
}

func runVNOnce(t *testing.T, src string, contexts, iters int, latency, service sim.Cycle, evented bool) vnOutcome {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\nprogram:\n%s", err, src)
	}
	mem := NewBankedMemory(latency, service)
	c := NewCore(prog, mem, contexts)
	for i := 0; i < contexts; i++ {
		// Contexts share banks (and sometimes cells) to exercise queuing.
		c.Context(i).SetReg(1, Word(32*(i%3)))
		c.Context(i).SetReg(4, Word(iters))
	}
	done := func() bool { return c.Halted() && mem.Pending() == 0 }
	var elapsed sim.Cycle
	var ok bool
	const limit = 5_000_000
	eng := sim.NewEngine()
	if !evented {
		eng.StepEveryCycle()
	}
	eng.Register(mem)
	eng.Register(c)
	elapsed, ok = eng.Run(done, limit)
	var sum Word
	for a := uint32(0); a < 128; a++ {
		sum = sum*31 + mem.Peek(a)
	}
	s := c.Stats()
	return vnOutcome{
		elapsed:  elapsed,
		ok:       ok,
		busy:     s.Busy.Value(),
		idle:     s.Idle.Value(),
		memOps:   s.MemOps.Value(),
		memWait:  s.MemWait.Value(),
		switches: s.Switches.Value(),
		retired:  s.Retired.Value(),
		served:   mem.Served.Value(),
		qMax:     mem.QueueLen.Max(),
		qMean:    mem.QueueLen.Mean(),
		checksum: sum,
	}
}

// runVNSkipping mirrors runVNOnce under exhaustive stepping, but wraps the
// memory and the core in simtest.IdleSkipper so any Step a component's own
// NextEvent declares idle is suppressed instead of executed. It returns
// the outcome plus the number of suppressed Steps.
func runVNSkipping(t *testing.T, src string, contexts, iters int, latency, service sim.Cycle) (vnOutcome, uint64) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\nprogram:\n%s", err, src)
	}
	mem := NewBankedMemory(latency, service)
	c := NewCore(prog, mem, contexts)
	for i := 0; i < contexts; i++ {
		c.Context(i).SetReg(1, Word(32*(i%3)))
		c.Context(i).SetReg(4, Word(iters))
	}
	skipMem := simtest.NewIdleSkipper(mem)
	skipCore := simtest.NewIdleSkipper(c)
	eng := sim.NewEngine()
	eng.StepEveryCycle()
	eng.Register(skipMem)
	eng.Register(skipCore)
	elapsed, ok := eng.Run(func() bool { return c.Halted() && mem.Pending() == 0 }, 5_000_000)
	var sum Word
	for a := uint32(0); a < 128; a++ {
		sum = sum*31 + mem.Peek(a)
	}
	s := c.Stats()
	return vnOutcome{
		elapsed:  elapsed,
		ok:       ok,
		busy:     s.Busy.Value(),
		idle:     s.Idle.Value(),
		memOps:   s.MemOps.Value(),
		memWait:  s.MemWait.Value(),
		switches: s.Switches.Value(),
		retired:  s.Retired.Value(),
		served:   mem.Served.Value(),
		qMax:     mem.QueueLen.Max(),
		qMean:    mem.QueueLen.Mean(),
		checksum: sum,
	}, skipMem.Skipped + skipCore.Skipped
}

// TestIdleStepIsANoOp pins the second half of the honesty contract on
// random vn programs: suppressing every Step a component's NextEvent
// declares idle must leave every observable bit-identical. This is the
// property the wake-queue engine leans on — components it never enqueues
// are components whose Step it may soundly never call.
func TestIdleStepIsANoOp(t *testing.T) {
	var totalSkipped uint64
	for seed := uint64(0); seed < 25; seed++ {
		rng := sim.NewRNG(0x51caffe + seed)
		src := randomProgram(rng)
		contexts := 1 + rng.Intn(6)
		iters := 3 + rng.Intn(30)
		latency := sim.Cycle(1 + rng.Intn(80))
		service := sim.Cycle(1 + rng.Intn(4))
		exhaustive := runVNOnce(t, src, contexts, iters, latency, service, false)
		skipping, skipped := runVNSkipping(t, src, contexts, iters, latency, service)
		if !exhaustive.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit\nprogram:\n%s", seed, src)
		}
		if exhaustive != skipping {
			t.Errorf("seed %d (contexts=%d iters=%d latency=%d service=%d): an idle Step was not a no-op\nexhaustive: %+v\nskipping:   %+v\nprogram:\n%s",
				seed, contexts, iters, latency, service, exhaustive, skipping, src)
		}
		totalSkipped += skipped
	}
	if totalSkipped == 0 {
		t.Fatal("no Step was ever suppressed: the property was tested vacuously")
	}
}

// TestEngineMatchesExhaustiveOnRandomPrograms is the NextEvent honesty
// check for the vn pipeline: random programs, context counts, and memory
// timings, each run twice. Any divergence means some NextEvent promised
// idleness the component didn't keep, or a Settle path mis-accounted a
// jumped-over gap.
func TestEngineMatchesExhaustiveOnRandomPrograms(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := sim.NewRNG(0x9e3779b9 + seed)
		src := randomProgram(rng)
		contexts := 1 + rng.Intn(6)
		iters := 3 + rng.Intn(40)
		latency := sim.Cycle(1 + rng.Intn(50))
		service := sim.Cycle(1 + rng.Intn(4)) // >1 exercises bank queuing
		exhaustive := runVNOnce(t, src, contexts, iters, latency, service, false)
		evented := runVNOnce(t, src, contexts, iters, latency, service, true)
		if !exhaustive.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit\nprogram:\n%s", seed, src)
		}
		if exhaustive != evented {
			t.Errorf("seed %d (contexts=%d iters=%d latency=%d service=%d): evented run diverged\nexhaustive: %+v\nevented:    %+v\nprogram:\n%s",
				seed, contexts, iters, latency, service, exhaustive, evented, src)
		}
	}
}

// TestEngineMatchesExhaustiveSingleContextBlocking pins the degenerate
// case the paper's Issue 1 leans on — a blocking single-context core where
// nearly every cycle is a memory-wait the engine should jump over.
func TestEngineMatchesExhaustiveSingleContextBlocking(t *testing.T) {
	src := `
loop:
  ld r2, r1, 0
  add r3, r3, r2
  st r3, r1, 1
  addi r4, r4, -1
  bne r4, r0, loop
  halt
`
	for _, latency := range []sim.Cycle{1, 7, 64, 300} {
		exhaustive := runVNOnce(t, src, 1, 25, latency, 2, false)
		evented := runVNOnce(t, src, 1, 25, latency, 2, true)
		if exhaustive != evented {
			t.Errorf("latency %d: evented run diverged\nexhaustive: %+v\nevented:    %+v",
				latency, exhaustive, evented)
		}
	}
}
