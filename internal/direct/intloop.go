package direct

import (
	"repro/internal/graph"
	"repro/internal/token"
)

// The loop accelerator's one runtime. lowerInt type-checks a recognized
// loop plan under a simple static discipline — circulating variables are
// int64, each DAG slot is int64 or bool depending on the opcode that
// writes it — and, when every op checks out, re-emits both DAGs as a flat
// program over one dense int64 register file (bools stored as 0/1). The
// steady-state iteration then runs as a handful of register-indexed
// switch dispatches with no allocation and no token.Value traffic.
//
// Why it exists: it holds the floor CI enforces on the committed bench
// files, direct sumloop(20000) at least 50x faster than the 8-PE TTDA.
// Measured with BenchmarkDirectVsInterp (2 CPUs, GOMAXPROCS 2, go1.24),
// this tier runs sumloop(20000) in 0.37–0.44 ms against 45–56 ms for the
// TTDA, ~100–150x. A token.Value loop over the same recognized plan took
// 1.35–1.49 ms (~30–41x, under the floor), and the delivery engine
// alone, with no plan, 18–19 ms (~3x).
//
// The specialization must be bit-identical to graph.Eval on the int
// tower, so each iop mirrors one verified Eval case: add/sub/mul wrap
// natively, div/mod truncate with a zero-divisor fault, the ordered
// comparisons (and int equality, per token.Value.Equal) compare through
// float64 exactly like Eval's AsFloat tower, and bool equality compares
// the bools themselves. Anything outside that table — float literals,
// sqrt, mixed-type equality, a bool circulating variable — rejects the
// plan, and the block runs on the delivery engine.
// Division or modulo by zero cannot be typed away, so those iops bail
// out of the native loop mid-iteration; the standard injection protocol
// then has the delivery engine refire the iteration and surface the
// fault with its ordinary message. (Bailing may happen even when the
// engine's own schedule would have exited first — the predicate DAG and
// body DAG are evaluated together here — but injection is semantics-free
// either way: the engine re-decides the iteration from scratch.)

// iopKind is the specialized opcode set. Every kind states the static
// types it was checked against: i = int64, b = bool-as-0/1.
type iopKind uint8

const (
	iAdd iopKind = iota // i,i -> i, wrapping
	iSub                // i,i -> i, wrapping
	iMul                // i,i -> i, wrapping
	iDiv                // i,i -> i, truncating; b==0 bails to the engine
	iMod                // i,i -> i; b==0 bails to the engine
	iMin                // i,i -> i
	iMax                // i,i -> i
	iLT                 // i,i -> b, compared as float64 like Eval
	iLE                 // i,i -> b, compared as float64
	iGT                 // i,i -> b, compared as float64
	iGE                 // i,i -> b, compared as float64
	iEQf                // i,i -> b, compared as float64 like Value.Equal
	iNEf                // i,i -> b, compared as float64
	iEQb                // b,b -> b
	iNEb                // b,b -> b
	iAnd                // b,b -> b
	iOr                 // b,b -> b
	iNot                // b -> b
	iNeg                // i -> i
	iAbs                // i -> i
	iMov                // any -> same type (identity, const, floor-of-int)
)

// intOp reads registers a and b and writes register d.
type intOp struct {
	op      iopKind
	a, b, d uint16
}

// intPlan is the flat int64-register program for one loop block.
// Register layout: [0,nVars) circulating variables, then one register
// per DAG op, then the literal pool.
type intPlan struct {
	regs0   []int64  // template: literals preloaded, vars/slots zero
	ops     []intOp  // predicate DAG then body DAG, topological order
	predReg uint16   // register steering the switches; bool-typed
	next    []uint16 // per variable: register holding its next value
	perIter uint64   // firings per steady (predicate-true) iteration
}

// register static types during lowering.
const (
	tInt = iota
	tBool
)

// intSigs types the opcodes the int64 program runs beyond Identity,
// Const, EQ and NE (which take either type): the iop, whether it reads
// port 0 only, the type every operand must have, and the type written.
var intSigs = map[graph.Opcode]struct {
	k       iopKind
	unary   bool
	in, out uint8
}{
	graph.OpAdd:   {iAdd, false, tInt, tInt},
	graph.OpSub:   {iSub, false, tInt, tInt},
	graph.OpMul:   {iMul, false, tInt, tInt},
	graph.OpDiv:   {iDiv, false, tInt, tInt},
	graph.OpMod:   {iMod, false, tInt, tInt},
	graph.OpMin:   {iMin, false, tInt, tInt},
	graph.OpMax:   {iMax, false, tInt, tInt},
	graph.OpLT:    {iLT, false, tInt, tBool},
	graph.OpLE:    {iLE, false, tInt, tBool},
	graph.OpGT:    {iGT, false, tInt, tBool},
	graph.OpGE:    {iGE, false, tInt, tBool},
	graph.OpAnd:   {iAnd, false, tBool, tBool},
	graph.OpOr:    {iOr, false, tBool, tBool},
	graph.OpNot:   {iNot, true, tBool, tBool},
	graph.OpNeg:   {iNeg, true, tInt, tInt},
	graph.OpAbs:   {iAbs, true, tInt, tInt},
	graph.OpFloor: {iMov, true, tInt, tInt}, // floor of an int is the int, per evalUnary
}

// lowerInt type-checks the recognized DAG ops — predicate then body,
// each in topological order — and emits them as one int64 program, or
// returns nil when any operand or opcode falls outside the integer
// discipline. predRoot is the predicate's statement; next gives each
// variable's value in the next iteration.
func lowerInt(m int, src []loopOp, predRoot int, nextSrc []loopSrc) *intPlan {
	nRegs := m + len(src)
	typ := make([]uint8, nRegs, nRegs+8)
	regs0 := make([]int64, nRegs, nRegs+8)
	reg := make(map[uint16]uint16, len(src)) // op stmt -> register it writes

	// lit interns a literal value as a constant register.
	lit := func(v token.Value) (uint16, uint8, bool) {
		var c int64
		var t uint8
		switch v.Kind {
		case token.KindInt:
			c, t = v.I, tInt
		case token.KindBool:
			t = tBool
			if v.B {
				c = 1
			}
		default:
			return 0, 0, false // float/nil literals: no plan
		}
		r := uint16(len(regs0))
		regs0 = append(regs0, c)
		typ = append(typ, t)
		return r, t, true
	}
	// operand resolves port p of op to a register and its static type.
	// An op only reads producers placed before it, so reg is filled.
	operand := func(op *loopOp, p int) (uint16, uint8, bool) {
		if op.lit[p] {
			return lit(op.litv[p])
		}
		if op.src[p].isVar {
			return uint16(op.src[p].idx), tInt, true
		}
		r := reg[uint16(op.src[p].idx)]
		return r, typ[r], true
	}

	var ops []intOp
	for i := range src {
		op := &src[i]
		d := uint16(m + i)
		reg[op.stmt] = d
		iop := intOp{d: d}
		var ta, tb, out uint8
		ok, okB := false, true
		// Resolve only the ports the opcode consumes, so an unread Nil
		// port cannot spuriously reject the plan.
		switch op.op {
		case graph.OpIdentity, graph.OpConst: // either type; Const moves its port-1 literal
			p := 0
			if op.op == graph.OpConst {
				p = 1
			}
			iop.op = iMov
			iop.a, ta, ok = operand(op, p)
			tb, out = ta, ta
		case graph.OpEQ, graph.OpNE: // either type, both the same
			iop.a, ta, ok = operand(op, 0)
			iop.b, tb, okB = operand(op, 1)
			iop.op = iEQf
			if ta == tBool {
				iop.op = iEQb
			}
			if op.op == graph.OpNE {
				iop.op++ // iNEf / iNEb follow their EQ kinds
			}
			out = tBool
		default:
			sig, known := intSigs[op.op]
			if !known {
				return nil // sqrt and anything unexpected
			}
			iop.op, out = sig.k, sig.out
			iop.a, ta, ok = operand(op, 0)
			tb = sig.in
			if !sig.unary {
				iop.b, tb, okB = operand(op, 1)
			}
			if ta != sig.in {
				return nil
			}
		}
		if !ok || !okB || ta != tb {
			return nil // a float literal, or mixed-type Equal
		}
		ops = append(ops, iop)
		typ[d] = out
	}

	// The predicate feeds AsBool, so it must be statically bool.
	predReg := reg[uint16(predRoot)]
	if typ[predReg] != tBool {
		return nil
	}

	// Next-iteration sources must be int-typed, or the variables would
	// stop being int64 after one iteration.
	next := make([]uint16, m)
	for k, src := range nextSrc {
		if src.isVar {
			next[k] = uint16(src.idx)
			continue
		}
		r := reg[uint16(src.idx)]
		if typ[r] != tInt {
			return nil
		}
		next[k] = r
	}

	return &intPlan{regs0: regs0, ops: ops, predReg: predReg, next: next, perIter: uint64(3*m + len(src))}
}

// runLoop executes a fully-argued loop activation natively. It only
// runs provably-steady iterations: the first one that exits (predicate
// false), faults (div/mod by zero) or busts the firing budget is handed
// back to the delivery engine as plain entry deliveries at the current
// initiation, and the engine refires it with its ordinary semantics and
// error messages.
func (x *Exec) runLoop(u uint32, ip *intPlan, vars []token.Value) {
	iter := x.runSteady(ip, vars)
	cs := &x.ctxs[u]
	for k := len(vars) - 1; k >= 0; k-- {
		x.push(u, iter, cs.cb.Entries[k], 0, vars[k])
	}
}

// runSteady runs steady iterations over the int64 register file, leaves
// the circulation values of the first non-steady iteration in vars, and
// returns that iteration's initiation number. An entry value that is not
// an integer runs nothing: the engine takes the loop from initiation 1.
func (x *Exec) runSteady(ip *intPlan, vars []token.Value) uint32 {
	iter := uint32(1)
	for _, v := range vars {
		if v.Kind != token.KindInt {
			return iter
		}
	}
	// m scratch words past the program's registers stage the
	// simultaneous next-value assignment.
	m := len(vars)
	regs := make([]int64, len(ip.regs0)+m)
	copy(regs, ip.regs0)
	next := regs[len(ip.regs0):]
	for k := 0; k < m; k++ {
		regs[k] = vars[k].I
	}

steady:
	for x.fired <= x.maxSteps {
		for i := range ip.ops {
			op := &ip.ops[i]
			a, b := regs[op.a], regs[op.b]
			var v int64
			switch op.op {
			case iAdd:
				v = a + b
			case iSub:
				v = a - b
			case iMul:
				v = a * b
			case iDiv:
				if b == 0 {
					break steady
				}
				v = a / b
			case iMod:
				if b == 0 {
					break steady
				}
				v = a % b
			case iMin:
				v = a
				if b < a {
					v = b
				}
			case iMax:
				v = a
				if b > a {
					v = b
				}
			case iLT:
				if float64(a) < float64(b) {
					v = 1
				}
			case iLE:
				if float64(a) <= float64(b) {
					v = 1
				}
			case iGT:
				if float64(a) > float64(b) {
					v = 1
				}
			case iGE:
				if float64(a) >= float64(b) {
					v = 1
				}
			case iEQf:
				if float64(a) == float64(b) {
					v = 1
				}
			case iNEf:
				if float64(a) != float64(b) {
					v = 1
				}
			case iEQb:
				if a == b {
					v = 1
				}
			case iNEb:
				if a != b {
					v = 1
				}
			case iAnd:
				v = a & b
			case iOr:
				v = a | b
			case iNot:
				v = 1 ^ a
			case iNeg:
				v = -a
			case iAbs:
				v = a
				if a < 0 {
					v = -a
				}
			default: // iMov
				v = a
			}
			regs[op.d] = v
		}
		if regs[ip.predReg] == 0 {
			break
		}
		for k, r := range ip.next {
			next[k] = regs[r]
		}
		for k := 0; k < m; k++ {
			regs[k] = next[k]
		}
		x.fired += ip.perIter
		iter++
	}
	for k := 0; k < m; k++ {
		vars[k] = token.Int(regs[k])
	}
	return iter
}
