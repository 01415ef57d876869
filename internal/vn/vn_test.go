package vn

import (
	"testing"

	"repro/internal/sim"
)

// runCore steps core and mem until the core halts, returning elapsed
// cycles.
func runCore(t *testing.T, core *Core, mem interface {
	Step(sim.Cycle)
}, limit int) int {
	t.Helper()
	for c := 0; c < limit; c++ {
		if core.Halted() {
			return c
		}
		mem.Step(sim.Cycle(c))
		core.Step(sim.Cycle(c))
	}
	t.Fatalf("core did not halt within %d cycles", limit)
	return limit
}

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
# sum the first n integers
        li   r1, 10        ; n
        li   r2, 0         ; s
loop:   beq  r1, r0, done
        add  r2, r2, r1
        addi r1, r1, -1
        j    loop
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 7 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if p.Labels["loop"] != 2 || p.Labels["done"] != 6 {
		t.Fatalf("labels: %v", p.Labels)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",
		"li r99, 5",
		"beq r1, r2, nowhere\nhalt",
		"dup: nop\ndup: nop",
		"",
		"ld r1, r2",
		",",
		"top: , r1\nhalt",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

// TestNegativeAddressHalts: a negative effective address faults the
// context, as a zero divisor does, instead of panicking the simulator.
func TestNegativeAddressHalts(t *testing.T) {
	for _, src := range []string{
		"li r1, -1\nld r2, r1, 0\nli r3, 7\nhalt",
		"li r1, 3\nst r1, r1, -4\nli r3, 7\nhalt",
		"li r1, -8\nfaa r2, r1, r1\nli r3, 7\nhalt",
	} {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewLatencyMemory(2)
		c := NewCore(prog, mem, 1)
		eng := sim.NewEngine()
		eng.Register(mem)
		eng.Register(c)
		if _, ok := eng.Run(func() bool { return c.Halted() && mem.Pending() == 0 }, 100); !ok {
			t.Fatalf("%q: core did not halt", src)
		}
		if got := c.Context(0).Reg(3); got != 0 {
			t.Fatalf("%q: ran past the faulting access (r3 = %d)", src, got)
		}
	}
}

// TestAddressAbove32BitsHalts: an effective address beyond the 32-bit
// address space faults the context, as a negative one does, instead of
// wrapping onto a low word.
func TestAddressAbove32BitsHalts(t *testing.T) {
	const wrapped = 64 // 4294967360 = 2^32 + 64
	for _, src := range []string{
		"li r1, 4294967360\nli r2, 7\nst r2, r1, 0\nli r3, 7\nhalt",
		"li r1, 4294967296\nld r2, r1, 64\nli r3, 7\nhalt",
		"li r1, 4294967360\nli r2, 7\nfaa r4, r1, r2\nli r3, 7\nhalt",
	} {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewLatencyMemory(2)
		mem.Poke(wrapped, 5)
		c := NewCore(prog, mem, 1)
		eng := sim.NewEngine()
		eng.Register(mem)
		eng.Register(c)
		if _, ok := eng.Run(func() bool { return c.Halted() && mem.Pending() == 0 }, 100); !ok {
			t.Fatalf("%q: core did not halt", src)
		}
		if got := c.Context(0).Reg(3); got != 0 {
			t.Fatalf("%q: ran past the faulting access (r3 = %d)", src, got)
		}
		if got := mem.Peek(wrapped); got != 5 {
			t.Fatalf("%q: word %d = %d, want it untouched (5)", src, wrapped, got)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	p, err := Assemble("start: li r1, 5\nld r2, r1, 3\nst r2, r1, 0\nfaa r3, r1, r2\nbeq r1, r2, start\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"li r1, 5", "ld r2, r1, 3", "st r2, r1, 0", "faa r3, r1, r2", "beq r1, r2, 0", "halt"}
	for i, w := range want {
		if got := p.Instrs[i].String(); got != w {
			t.Errorf("instr %d: %q, want %q", i, got, w)
		}
	}
}

func TestCoreArithmeticLoop(t *testing.T) {
	p, err := Assemble(`
        li   r1, 100
        li   r2, 0
loop:   beq  r1, r0, done
        add  r2, r2, r1
        addi r1, r1, -1
        j    loop
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLatencyMemory(1)
	core := NewCore(p, mem, 1)
	runCore(t, core, mem, 10000)
	if got := core.Context(0).Reg(2); got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
}

func TestCoreLoadStore(t *testing.T) {
	p, err := Assemble(`
        li  r1, 100
        li  r2, 42
        st  r2, r1, 0
        ld  r3, r1, 0
        addi r3, r3, 1
        st  r3, r1, 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLatencyMemory(5)
	core := NewCore(p, mem, 1)
	runCore(t, core, mem, 1000)
	if mem.Peek(100) != 42 || mem.Peek(101) != 43 {
		t.Fatalf("memory: %d, %d", mem.Peek(100), mem.Peek(101))
	}
}

func TestCoreJalJr(t *testing.T) {
	p, err := Assemble(`
        li   r1, 7
        jal  r31, double
        jal  r31, double
        halt
double: add r1, r1, r1
        jr  r31
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLatencyMemory(1)
	core := NewCore(p, mem, 1)
	runCore(t, core, mem, 1000)
	if got := core.Context(0).Reg(1); got != 28 {
		t.Fatalf("r1 = %d, want 28", got)
	}
}

func TestR0Hardwired(t *testing.T) {
	p, err := Assemble(`
        li  r0, 99
        addi r1, r0, 5
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLatencyMemory(1)
	core := NewCore(p, mem, 1)
	runCore(t, core, mem, 100)
	if got := core.Context(0).Reg(1); got != 5 {
		t.Fatalf("r0 must stay zero; r1 = %d", got)
	}
}

// memLoop is the E1 kernel: one load plus four register ops per iteration.
const memLoop = `
        ; r1 = base, r4 = iterations
loop:   ld   r2, r1, 0
        add  r3, r3, r2
        addi r1, r1, 1
        addi r4, r4, -1
        bne  r4, r0, loop
        halt
`

func TestBlockingCoreUtilizationFallsWithLatency(t *testing.T) {
	// Issue 1: a processor that cannot overlap memory requests idles more
	// as latency grows.
	utilAt := func(latency sim.Cycle) float64 {
		p, err := Assemble(memLoop)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewLatencyMemory(latency)
		core := NewCore(p, mem, 1)
		core.Context(0).SetReg(1, 1000)
		core.Context(0).SetReg(4, 100)
		runCore(t, core, mem, 1_000_000)
		return core.Stats().Utilization()
	}
	u1, u20, u100 := utilAt(1), utilAt(20), utilAt(100)
	if !(u1 > u20 && u20 > u100) {
		t.Fatalf("utilization must fall with latency: %v %v %v", u1, u20, u100)
	}
	if u100 > 0.1 {
		t.Fatalf("at latency 100 a blocking core should be mostly idle, got %v", u100)
	}
}

func TestMultithreadedCoreHidesLatency(t *testing.T) {
	// With enough hardware contexts the same kernel keeps the ALU busy —
	// and the required context count grows with the latency (Issue 1's
	// unbounded-context argument).
	utilAt := func(latency sim.Cycle, k int) float64 {
		p, err := Assemble(memLoop)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewLatencyMemory(latency)
		core := NewCore(p, mem, k)
		for i := 0; i < k; i++ {
			core.Context(i).SetReg(1, Word(1000+1000*i))
			core.Context(i).SetReg(4, 50)
		}
		runCore(t, core, mem, 1_000_000)
		return core.Stats().Utilization()
	}
	const latency = 50
	u1 := utilAt(latency, 1)
	u4 := utilAt(latency, 4)
	u16 := utilAt(latency, 16)
	if !(u16 > u4 && u4 > u1) {
		t.Fatalf("more contexts must hide more latency: %v %v %v", u1, u4, u16)
	}
	if u16 < 0.6 {
		t.Fatalf("16 contexts should mostly hide latency 50, got %v", u16)
	}
	// The k needed for high utilization scales with latency: k=4 is
	// enough at latency 5 but not at latency 200.
	if utilAt(5, 4) < 0.8 {
		t.Fatal("4 contexts should suffice at latency 5")
	}
	if utilAt(200, 4) > 0.6 {
		t.Fatal("4 contexts should NOT suffice at latency 200")
	}
}

func TestFetchAddAtomicUnderContention(t *testing.T) {
	// Many contexts FAA the same cell; the sum must be exact and every
	// fetched value distinct — the serialization property.
	p, err := Assemble(`
        li  r1, 500      ; shared cell
        li  r2, 1
        faa r3, r1, r2   ; r3 = old
        st  r3, r4, 0    ; record what we fetched
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewBankedMemory(2, 1)
	const k = 8
	core := NewCore(p, mem, k)
	for i := 0; i < k; i++ {
		core.Context(i).SetReg(4, Word(600+i))
	}
	for c := 0; c < 100000; c++ {
		if core.Halted() && mem.Pending() == 0 {
			break
		}
		mem.Step(sim.Cycle(c))
		core.Step(sim.Cycle(c))
	}
	if got := mem.Peek(500); got != k {
		t.Fatalf("cell = %d, want %d", got, k)
	}
	seen := map[Word]bool{}
	for i := 0; i < k; i++ {
		v := mem.Peek(uint32(600 + i))
		if v < 0 || v >= k || seen[v] {
			t.Fatalf("fetched values not a permutation: %v (dup %d)", seen, v)
		}
		seen[v] = true
	}
}

func TestTestAndSetSpinlock(t *testing.T) {
	// Two contexts increment a shared counter 100 times each under a TAS
	// spinlock; the result must be exactly 200.
	p, err := Assemble(`
        li   r1, 900      ; lock address
        li   r2, 901      ; counter address
        li   r5, 100      ; iterations
outer:  beq  r5, r0, done
spin:   tas  r3, r1
        bne  r3, r0, spin ; lock was held, retry
        ld   r4, r2, 0    ; critical section
        addi r4, r4, 1
        st   r4, r2, 0
        st   r0, r1, 0    ; release lock
        addi r5, r5, -1
        j    outer
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewBankedMemory(1, 1)
	core := NewCore(p, mem, 2)
	for c := 0; c < 1_000_000; c++ {
		if core.Halted() && mem.Pending() == 0 {
			break
		}
		mem.Step(sim.Cycle(c))
		core.Step(sim.Cycle(c))
	}
	if !core.Halted() {
		t.Fatal("cores did not halt")
	}
	if got := mem.Peek(901); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
}

func TestBankedMemorySerializes(t *testing.T) {
	// A bank serving one request per 4 cycles must take >= 4*n cycles for
	// n requests.
	mem := NewBankedMemory(1, 4)
	done := 0
	const n = 10
	for i := 0; i < n; i++ {
		mem.Request(MemRequest{Op: MemRead, Addr: uint32(i), Done: func(Word) { done++ }})
	}
	c := 0
	for ; mem.Pending() > 0 && c < 1000; c++ {
		mem.Step(sim.Cycle(c))
	}
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if c < 4*(n-1) {
		t.Fatalf("bank finished %d requests in %d cycles; service time not honored", n, c)
	}
	if mem.QueueLen.Max() < n/2 {
		t.Fatalf("queue high-water %d too small for burst of %d", mem.QueueLen.Max(), n)
	}
}

func TestCoreStatsConsistency(t *testing.T) {
	p, err := Assemble(memLoop)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLatencyMemory(10)
	core := NewCore(p, mem, 1)
	core.Context(0).SetReg(1, 100)
	core.Context(0).SetReg(4, 20)
	elapsed := runCore(t, core, mem, 100000)
	s := core.Stats()
	if s.MemOps.Value() != 20 {
		t.Fatalf("mem ops = %d, want 20", s.MemOps.Value())
	}
	if got := s.Busy.Value() + s.Idle.Value(); got != uint64(elapsed) {
		t.Fatalf("busy+idle = %d, elapsed %d", got, elapsed)
	}
}

func TestAssemblerRoundTripProperty(t *testing.T) {
	// Every instruction's String() form must re-assemble to an identical
	// instruction (branch/jump targets print as absolute addresses, which
	// re-assemble only via labels, so those are skipped).
	rng := sim.NewRNG(123)
	mk := func() Instr {
		ops := []Op{NOP, HALT, LI, ADD, SUB, MUL, DIV, AND, OR, XOR, SLT,
			SLE, SEQ, ADDI, LD, ST, FAA, TAS, JR}
		in := Instr{Op: ops[rng.Intn(len(ops))]}
		in.Rd = uint8(rng.Intn(NumRegs))
		in.Rs = uint8(rng.Intn(NumRegs))
		in.Rt = uint8(rng.Intn(NumRegs))
		in.Imm = Word(rng.Intn(2001) - 1000)
		// normalize fields the textual form does not carry
		switch in.Op {
		case NOP, HALT:
			in.Rd, in.Rs, in.Rt, in.Imm = 0, 0, 0, 0
		case LI:
			in.Rs, in.Rt = 0, 0
		case ADDI, LD:
			in.Rt = 0
		case ST:
			in.Rd = 0
		case JR:
			in.Rd, in.Rt, in.Imm = 0, 0, 0
		case TAS:
			in.Rt, in.Imm = 0, 0
		default: // three-register ops
			in.Imm = 0
		}
		return in
	}
	for i := 0; i < 500; i++ {
		in := mk()
		p, err := Assemble(in.String())
		if err != nil {
			t.Fatalf("%q does not re-assemble: %v", in.String(), err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0] != in {
			t.Fatalf("round trip changed %q -> %+v", in.String(), p.Instrs[0])
		}
	}
}
