package vn

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// MemOp is a data-memory operation kind.
type MemOp uint8

// Memory operation kinds.
const (
	MemRead MemOp = iota
	MemWrite
	MemFetchAdd
	MemTestSet
	// MemConsume and MemProduce are the HEP full/empty operations; only
	// memories with full/empty bits (machines/hep) accept them.
	MemConsume
	MemProduce
)

// MemRequest is one asynchronous memory operation. Done fires when the
// operation completes, carrying the loaded/old value (reads, FAA, TAS) or
// zero (writes). Ref is Done's serializable identity: closures cannot
// cross a checkpoint, so every in-flight request carries enough to rebuild
// its callback in a freshly restored machine.
type MemRequest struct {
	Op    MemOp
	Addr  uint32
	Value Word
	Done  func(Word)
	Ref   DoneRef
}

// DoneRef identifies a request's completion callback for checkpointing.
// Kind 0 means no callback; DoneRefCoreCtx is the core-issued callback
// (A = the core's save ID, B = the context index); kinds at or above
// DoneRefMachine are machine-defined wrappers (a reply path re-entering a
// network, a remote-reference return trip) that the owning machine's
// resolver reconstructs.
type DoneRef struct {
	Kind uint32
	A    uint32
	B    uint64
}

// DoneRef kinds.
const (
	DoneRefNone    uint32 = 0
	DoneRefCoreCtx uint32 = 1
	// DoneRefMachine is the first machine-defined wrapper kind.
	DoneRefMachine uint32 = 16
)

// DoneResolver maps a DoneRef back to a live callback in a freshly
// restored machine. Resolvers return nil only for DoneRefNone; an
// unrecognized ref is a corrupt checkpoint and must error via the Dec.
type DoneResolver func(ref DoneRef) func(Word)

// MemPort issues memory requests on behalf of a core. Implementations
// model latency, contention, caches, or network transport.
type MemPort interface {
	Request(r MemRequest)
}

// AddrLimiter is implemented by a MemPort whose address space is
// bounded: AddrLimit is the first address it cannot serve. A core over
// such a port faults a context at or beyond the limit instead of issuing
// the request.
type AddrLimiter interface {
	AddrLimit() Word
}

// CoreStats measures one core's cycle budget.
type CoreStats struct {
	// Busy counts cycles an instruction issued; Idle counts cycles the
	// core had no runnable context (all waiting on memory); Done counts
	// cycles after every context halted.
	Busy, Idle metrics.Counter
	// MemOps counts issued memory operations; MemWait accumulates total
	// context-cycles spent waiting on memory.
	MemOps  metrics.Counter
	MemWait metrics.Counter
	// Switches counts hardware context switches taken.
	Switches metrics.Counter
	Retired  metrics.Counter
}

// Utilization is busy / (busy + idle): the fraction of cycles the
// processor did useful work before halting.
func (s *CoreStats) Utilization() float64 {
	total := s.Busy.Value() + s.Idle.Value()
	if total == 0 {
		return 0
	}
	return float64(s.Busy.Value()) / float64(total)
}

// context is one hardware register set (the duplicated processor state of
// Section 1.1's low-level context switching).
type context struct {
	regs    [NumRegs]Word
	pc      int
	waiting bool
	halted  bool

	// pendingRd is the destination register of the outstanding memory
	// operation; done is the context's persistent completion callback. A
	// context has at most one request in flight (waiting blocks issue), so
	// one closure per context replaces one allocation per memory operation.
	pendingRd uint8
	done      func(Word)

	// idx is the context's index within its core (for DoneRef identity).
	idx int
}

// SetSaveID assigns the core's checkpoint identity: the A field of every
// DoneRefCoreCtx ref this core issues. Machines with several cores assign
// each a distinct ID at construction; the default 0 suits single-core
// assemblies.
func (c *Core) SetSaveID(id int) { c.saveID = uint32(id) }

// DoneFor returns context i's persistent completion callback, creating it
// on first use — the hook restore paths use to rebind in-flight requests
// to a freshly constructed core.
func (c *Core) DoneFor(i int) func(Word) {
	ctx := c.ctxs[i]
	if ctx.done == nil {
		ctx.done = func(v Word) {
			if ctx.pendingRd != 0 {
				ctx.regs[ctx.pendingRd] = v
			}
			ctx.waiting = false
			if c.waker != nil {
				// The context just became runnable: the core's next event
				// moved to now.
				c.waker.Wake(c, c.waker.Now())
			}
		}
	}
	return ctx.done
}

// Resolver returns a DoneResolver covering the given cores, indexed by
// their save IDs (cores[i] must have save ID i). Machines without wrapper
// kinds use it directly; machines with wrappers delegate the core-context
// kind to it.
func Resolver(cores []*Core) DoneResolver {
	return func(ref DoneRef) func(Word) {
		if ref.Kind != DoneRefCoreCtx {
			return nil
		}
		i := int(ref.A)
		if i >= len(cores) {
			return nil
		}
		c := cores[i]
		if int(ref.B) >= len(c.ctxs) {
			return nil
		}
		return c.DoneFor(int(ref.B))
	}
}

// Core is a cycle-stepped processor with k hardware contexts. k=1 is the
// classic blocking von Neumann core: a load stalls the processor for the
// full memory round trip. k>1 switches to another runnable context on
// every memory issue (HEP style), hiding latency as long as some context
// is runnable — the paper's point is that k must grow with machine size.
type Core struct {
	prog  *Program
	mem   MemPort
	ctxs  []*context
	next  int // round-robin pointer
	stats CoreStats

	// saveID is the core's identity inside DoneRefCoreCtx refs (SetSaveID).
	saveID uint32

	// limit is the memory's AddrLimit, or 0 when it reports none.
	limit Word

	// Settlement state for event-driven runs: cycles an engine jumps over
	// are accounted lazily, at the context state frozen when the core last
	// stepped (jumped-over cycles are activity-free, so the frozen state is
	// exactly what per-cycle stepping would have observed).
	settled       sim.Cycle
	frozenWaiting uint64
	frozenIdle    bool

	waker sim.Waker
}

// Attach receives the engine's waker (sim.Wakeable); memory completions
// use it to re-arm the core the moment a context becomes runnable.
func (c *Core) Attach(w sim.Waker) { c.waker = w }

// NewCore returns a core running prog with k hardware contexts, all
// started at pc 0 and runnable. Use Context to adjust initial state.
func NewCore(prog *Program, mem MemPort, k int) *Core {
	if k < 1 {
		k = 1
	}
	c := &Core{prog: prog, mem: mem}
	if l, ok := mem.(AddrLimiter); ok {
		c.limit = l.AddrLimit()
	}
	for i := 0; i < k; i++ {
		c.ctxs = append(c.ctxs, &context{idx: i})
	}
	return c
}

// Context exposes context i's register file and pc for initialization:
// SetReg/SetPC before the run, Reg after.
func (c *Core) Context(i int) *ContextHandle { return &ContextHandle{ctx: c.ctxs[i]} }

// NumContexts returns k.
func (c *Core) NumContexts() int { return len(c.ctxs) }

// ContextHandle provides controlled access to one hardware context.
type ContextHandle struct{ ctx *context }

// SetReg sets a register (r0 writes are ignored).
func (h *ContextHandle) SetReg(r uint8, v Word) {
	if r != 0 {
		h.ctx.regs[r] = v
	}
}

// Reg reads a register.
func (h *ContextHandle) Reg(r uint8) Word { return h.ctx.regs[r] }

// SetPC sets the program counter.
func (h *ContextHandle) SetPC(pc int) { h.ctx.pc = pc }

// Halted reports whether the context executed HALT.
func (h *ContextHandle) Halted() bool { return h.ctx.halted }

// Halted reports whether every context has halted.
func (c *Core) Halted() bool {
	for _, ctx := range c.ctxs {
		if !ctx.halted {
			return false
		}
	}
	return true
}

// Stats returns the core's measurements.
func (c *Core) Stats() *CoreStats { return &c.stats }

// Step advances the core one cycle: pick the next runnable context
// (round-robin), execute one instruction. Memory operations issue and mark
// the context waiting; with k=1 that stalls the whole core.
func (c *Core) Step(now sim.Cycle) {
	c.settleThrough(now)
	c.settled = now + 1
	defer c.freeze()
	if c.Halted() {
		return
	}
	// account waiting contexts
	for _, ctx := range c.ctxs {
		if ctx.waiting {
			c.stats.MemWait.Inc()
		}
	}
	k := len(c.ctxs)
	sel := -1
	for i := 0; i < k; i++ {
		idx := (c.next + i) % k
		ctx := c.ctxs[idx]
		if !ctx.waiting && !ctx.halted {
			sel = idx
			break
		}
	}
	if sel < 0 {
		c.stats.Idle.Inc()
		return
	}
	if sel != c.next {
		c.stats.Switches.Inc()
	}
	// switch-on-every-cycle round robin: advance past the selected context
	c.next = (sel + 1) % k
	c.stats.Busy.Inc()
	c.stats.Retired.Inc()
	c.execute(c.ctxs[sel])
}

// NextEvent reports now while any context is runnable, and Never when the
// core is halted or every live context is parked on memory — the memory
// port's own NextEvent pins the wakeup cycle.
func (c *Core) NextEvent(now sim.Cycle) sim.Cycle {
	for _, ctx := range c.ctxs {
		if !ctx.halted && !ctx.waiting {
			return now
		}
	}
	return sim.Never
}

// freeze captures the context state that per-cycle accounting depends on,
// for lazy settlement of jumped-over cycles.
func (c *Core) freeze() {
	c.frozenWaiting = 0
	runnable := false
	for _, ctx := range c.ctxs {
		if ctx.halted {
			continue
		}
		if ctx.waiting {
			c.frozenWaiting++
		} else {
			runnable = true
		}
	}
	c.frozenIdle = !runnable && c.frozenWaiting > 0
}

// settleThrough accounts MemWait and Idle for unaccounted cycles before t
// at the frozen state, matching per-cycle stepping bit for bit.
func (c *Core) settleThrough(t sim.Cycle) {
	if t <= c.settled {
		return
	}
	gap := uint64(t - c.settled)
	c.settled = t
	if c.frozenWaiting > 0 {
		c.stats.MemWait.Add(gap * c.frozenWaiting)
	}
	if c.frozenIdle {
		c.stats.Idle.Add(gap)
	}
}

// Settle accounts stall statistics for jumped-over cycles (sim.Settler).
func (c *Core) Settle(through sim.Cycle) { c.settleThrough(through) }

func (c *Core) execute(ctx *context) {
	if ctx.pc < 0 || ctx.pc >= len(c.prog.Instrs) {
		ctx.halted = true
		return
	}
	in := c.prog.Instrs[ctx.pc]
	ctx.pc++
	rd, rs, rt := in.Rd, in.Rs, in.Rt
	set := func(r uint8, v Word) {
		if r != 0 {
			ctx.regs[r] = v
		}
	}
	switch in.Op {
	case NOP:
	case HALT:
		ctx.halted = true
	case LI:
		set(rd, in.Imm)
	case ADDI:
		set(rd, ctx.regs[rs]+in.Imm)
	case ADD:
		set(rd, ctx.regs[rs]+ctx.regs[rt])
	case SUB:
		set(rd, ctx.regs[rs]-ctx.regs[rt])
	case MUL:
		set(rd, ctx.regs[rs]*ctx.regs[rt])
	case DIV:
		if ctx.regs[rt] == 0 {
			ctx.halted = true
			return
		}
		set(rd, ctx.regs[rs]/ctx.regs[rt])
	case AND:
		set(rd, ctx.regs[rs]&ctx.regs[rt])
	case OR:
		set(rd, ctx.regs[rs]|ctx.regs[rt])
	case XOR:
		set(rd, ctx.regs[rs]^ctx.regs[rt])
	case SLT:
		set(rd, b2w(ctx.regs[rs] < ctx.regs[rt]))
	case SLE:
		set(rd, b2w(ctx.regs[rs] <= ctx.regs[rt]))
	case SEQ:
		set(rd, b2w(ctx.regs[rs] == ctx.regs[rt]))
	case BEQ:
		if ctx.regs[rs] == ctx.regs[rt] {
			ctx.pc = int(in.Imm)
		}
	case BNE:
		if ctx.regs[rs] != ctx.regs[rt] {
			ctx.pc = int(in.Imm)
		}
	case BLT:
		if ctx.regs[rs] < ctx.regs[rt] {
			ctx.pc = int(in.Imm)
		}
	case BGE:
		if ctx.regs[rs] >= ctx.regs[rt] {
			ctx.pc = int(in.Imm)
		}
	case J:
		ctx.pc = int(in.Imm)
	case JAL:
		set(rd, Word(ctx.pc))
		ctx.pc = int(in.Imm)
	case JR:
		ctx.pc = int(ctx.regs[rs])
	case LD:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]+in.Imm); ok {
			c.issueMem(ctx, MemRequest{Op: MemRead, Addr: a}, rd)
		}
	case ST:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]+in.Imm); ok {
			c.issueMem(ctx, MemRequest{Op: MemWrite, Addr: a, Value: ctx.regs[rt]}, 0)
		}
	case FAA:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]); ok {
			c.issueMem(ctx, MemRequest{Op: MemFetchAdd, Addr: a, Value: ctx.regs[rt]}, rd)
		}
	case TAS:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]); ok {
			c.issueMem(ctx, MemRequest{Op: MemTestSet, Addr: a}, rd)
		}
	case CNS:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]); ok {
			c.issueMem(ctx, MemRequest{Op: MemConsume, Addr: a}, rd)
		}
	case PRD:
		if a, ok := c.memAddr(ctx, ctx.regs[rs]); ok {
			c.issueMem(ctx, MemRequest{Op: MemProduce, Addr: a, Value: ctx.regs[rt]}, 0)
		}
	default:
		panic(fmt.Sprintf("vn: cannot execute %s", in.Op))
	}
}

// issueMem sends a memory request and parks the context until completion.
func (c *Core) issueMem(ctx *context, req MemRequest, rd uint8) {
	c.stats.MemOps.Inc()
	ctx.waiting = true
	ctx.pendingRd = rd
	req.Done = c.DoneFor(ctx.idx)
	req.Ref = DoneRef{Kind: DoneRefCoreCtx, A: c.saveID, B: uint64(ctx.idx)}
	c.mem.Request(req)
}

// memAddr converts an effective address. A negative address, one above
// the 32-bit address space, or one at or beyond the memory's AddrLimit
// faults the context: it halts, as it does on a zero divisor.
func (c *Core) memAddr(ctx *context, a Word) (uint32, bool) {
	if a < 0 || a > math.MaxUint32 || (c.limit > 0 && a >= c.limit) {
		ctx.halted = true
		return 0, false
	}
	return uint32(a), true
}

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}
