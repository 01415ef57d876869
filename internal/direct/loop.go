package direct

import (
	"repro/internal/graph"
	"repro/internal/token"
)

// Loop acceleration: the MiniID compiler lowers every loop into a code
// block with one circulation triple per loop variable — an identity head
// (the block entry), a SWITCH steered by the shared predicate, and a D
// that carries the next value into initiation i+1 — plus a predicate DAG
// read from the heads and a body DAG read from the switches' true arms.
// That shape is static, so instead of routing three bookkeeping firings
// per variable per iteration through the delivery engine, the lowerer
// recognizes it once, types it as an int64 register program
// (intloop.go), and runs the whole loop as a native Go for-loop, with the
// circulation machinery reduced to firing-count arithmetic (heads,
// switches and Ds move values the native loop already holds in
// registers). The firing count per steady iteration is exactly the
// delivery engine's, because every classified instruction fires exactly
// once per iteration in both schedules.
//
// The accelerator never handles an exit, a fault, or a firing-budget
// overrun itself: the moment an iteration is not a provably-steady
// pred-true iteration, the current circulation values are handed to the
// delivery engine as ordinary entry deliveries at the current initiation,
// and the engine refires that iteration — taking the false arms through
// D-1/L-1, or surfacing the eval fault with the standard activity-name
// message. Blocks whose shape the recognizer cannot prove (calls,
// conditionals or I-structure traffic in the body) or whose DAGs do not
// type as int64 (floats, sqrt, a bool loop variable) simply get no plan
// and run entirely on the delivery engine; rejection is always safe, only
// speed varies. Among the committed workloads only sumloop's loop is
// accepted.

// loopSrc names where a DAG operand comes from at runtime: a circulating
// loop variable, or the statement of an earlier op in the same DAG.
type loopSrc struct {
	isVar bool
	idx   int
}

// loopOp is one pure instruction of the predicate or body DAG, with its
// operands resolved to literals, variables, or producing statements at
// lowering time.
type loopOp struct {
	stmt uint16
	op   graph.Opcode
	lit  [2]bool
	litv [2]token.Value
	src  [2]loopSrc
	deps []int // producing stmts inside the same DAG
}

// roles during recognition.
const (
	roleCand   = iota // unclassified pure instruction (predicate or body)
	roleHead          // circulation head (block entry)
	roleSwitch        // circulation switch
	roleD             // circulation D
	roleExit          // exit-only machinery (D-1, L-1, sinks)
)

// arc is one producer of a (stmt, port) input during recognition.
type arc struct {
	from     uint16
	falseArm bool
	trueArm  bool
}

// lowerLoop recognizes the compiler's loop-block shape and returns its
// int64 plan, or nil when any instruction resists classification or
// typing.
func lowerLoop(cb *graph.CBlock) *intPlan {
	m := len(cb.Entries)
	n := len(cb.Instrs)
	if m == 0 || cb.ID == 0 || n == 0 {
		return nil
	}

	headVar := make(map[uint16]int, m)
	for k, s := range cb.Entries {
		if int(s) >= n {
			return nil
		}
		in := &cb.Instrs[s]
		if in.Kind != graph.KindPure || in.NT != 1 || in.HasLit {
			return nil
		}
		if _, dup := headVar[s]; dup {
			return nil
		}
		headVar[s] = k
	}

	roles := make([]uint8, n)
	dOf := make([]int, m)
	for k := range dOf {
		dOf[k] = -1
	}
	for s := range cb.Instrs {
		in := &cb.Instrs[s]
		if _, isHead := headVar[uint16(s)]; isHead {
			roles[s] = roleHead
			continue
		}
		switch in.Kind {
		case graph.KindD:
			if in.NT != 1 || in.HasLit || len(in.DestsFalse) != 0 || len(in.Dests) != 1 {
				return nil
			}
			d := in.Dests[0]
			k, ok := headVar[d.Stmt]
			if !ok || d.Port != 0 || dOf[k] != -1 {
				return nil
			}
			dOf[k] = s
			roles[s] = roleD
		case graph.KindSwitch:
			if in.NT != 2 || in.HasLit {
				return nil
			}
			roles[s] = roleSwitch
		case graph.KindPure:
			roles[s] = roleCand
		case graph.KindDInv, graph.KindReturn, graph.KindSink, graph.KindNop:
			roles[s] = roleExit
		default:
			return nil
		}
	}
	for k := range dOf {
		if dOf[k] == -1 {
			return nil // a variable without a D: a function block, not a loop
		}
	}

	// Producer map: prods[stmt][port] lists the arcs feeding that input.
	prods := make([][2][]arc, n)
	addArcs := func(from uint16, dests []graph.CDest, falseArm, trueArm bool) bool {
		for _, d := range dests {
			if int(d.Stmt) >= n || d.Port > 1 {
				return false
			}
			prods[d.Stmt][d.Port] = append(prods[d.Stmt][d.Port], arc{from: from, falseArm: falseArm, trueArm: trueArm})
		}
		return true
	}
	for s := range cb.Instrs {
		in := &cb.Instrs[s]
		isSwitch := roles[s] == roleSwitch
		if !addArcs(uint16(s), in.Dests, false, isSwitch) {
			return nil
		}
		if !addArcs(uint16(s), in.DestsFalse, true, false) {
			return nil
		}
		if len(in.RetDests) != 0 {
			return nil
		}
	}

	// Switches: port 0 carries exactly one head's value, port 1 the shared
	// predicate. Every variable needs exactly one switch.
	swOf := make([]int, m)
	for k := range swOf {
		swOf[k] = -1
	}
	predRoot := -1
	for s := range cb.Instrs {
		if roles[s] != roleSwitch {
			continue
		}
		p0 := prods[s][0]
		if len(p0) != 1 || p0[0].falseArm || p0[0].trueArm {
			return nil
		}
		k, ok := headVar[p0[0].from]
		if !ok || swOf[k] != -1 {
			return nil
		}
		swOf[k] = s
		p1 := prods[s][1]
		if len(p1) == 0 {
			return nil
		}
		for _, a := range p1 {
			if a.falseArm || a.trueArm {
				return nil
			}
			if predRoot == -1 {
				predRoot = int(a.from)
			} else if predRoot != int(a.from) {
				return nil
			}
		}
	}
	for k := range swOf {
		if swOf[k] == -1 {
			return nil
		}
	}

	// Predicate DAG: the transitive pure producers of predRoot, reading
	// only heads, literals, and each other. A head steering the switches
	// itself is a bool loop variable, which the int64 program cannot hold.
	if roles[predRoot] != roleCand {
		return nil
	}
	inPred := make([]bool, n)
	stack := []int{predRoot}
	inPred[predRoot] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := &cb.Instrs[s]
		for p := 0; p < 2; p++ {
			if in.HasLit && int(in.LitPort) == p {
				if len(prods[s][p]) != 0 {
					return nil
				}
				continue
			}
			arcs := prods[s][p]
			if len(arcs) == 0 {
				continue
			}
			if len(arcs) != 1 || arcs[0].falseArm || arcs[0].trueArm {
				return nil
			}
			from := int(arcs[0].from)
			switch roles[from] {
			case roleHead:
				// variable read: fine
			case roleCand:
				if !inPred[from] {
					inPred[from] = true
					stack = append(stack, from)
				}
			default:
				return nil
			}
		}
	}

	// Every predicate op's outputs must stay inside the predicate DAG or
	// feed switch control; every head's outputs must feed its switch's
	// data port or the predicate DAG.
	for s := range cb.Instrs {
		in := &cb.Instrs[s]
		switch {
		case inPred[s]:
			for _, d := range in.Dests {
				if inPred[d.Stmt] {
					continue
				}
				if roles[d.Stmt] == roleSwitch && d.Port == 1 {
					continue
				}
				return nil
			}
		case roles[s] == roleHead:
			k := headVar[uint16(s)]
			for _, d := range in.Dests {
				if int(d.Stmt) == swOf[k] && d.Port == 0 {
					continue
				}
				if inPred[d.Stmt] {
					continue
				}
				return nil
			}
		}
	}

	// Body DAG: the remaining pure candidates. They read switch true arms
	// (the circulating values), literals, and each other, and feed each
	// other and the Ds.
	inBody := make([]bool, n)
	for s := range cb.Instrs {
		if roles[s] == roleCand && !inPred[s] {
			inBody[s] = true
		}
	}

	varOfSwitch := make(map[int]int, m)
	for k, s := range swOf {
		varOfSwitch[s] = k
	}
	buildOp := func(s int, inSet []bool, allowTrueArm bool) (loopOp, bool) {
		in := &cb.Instrs[s]
		op := loopOp{stmt: uint16(s), op: in.Op}
		arcsSeen := 0
		for p := 0; p < 2; p++ {
			if in.HasLit && int(in.LitPort) == p {
				if len(prods[s][p]) != 0 {
					return op, false
				}
				op.lit[p] = true
				op.litv[p] = in.Lit
				continue
			}
			arcs := prods[s][p]
			if len(arcs) == 0 {
				op.lit[p] = true
				op.litv[p] = token.Nil()
				continue
			}
			if len(arcs) != 1 {
				return op, false
			}
			a := arcs[0]
			arcsSeen++
			from := int(a.from)
			switch {
			case a.trueArm && allowTrueArm:
				k, ok := varOfSwitch[from]
				if !ok {
					return op, false
				}
				op.src[p] = loopSrc{isVar: true, idx: k}
			case !a.trueArm && !a.falseArm && roles[from] == roleHead && !allowTrueArm:
				op.src[p] = loopSrc{isVar: true, idx: headVar[uint16(from)]}
			case !a.trueArm && !a.falseArm && inSet[from]:
				op.src[p] = loopSrc{idx: from}
				op.deps = append(op.deps, from)
			default:
				return op, false
			}
		}
		if arcsSeen != int(in.NT) {
			return op, false
		}
		return op, true
	}

	// Body op outputs must stay in the body DAG or feed a D's data port.
	for s := range cb.Instrs {
		if !inBody[s] {
			continue
		}
		in := &cb.Instrs[s]
		for _, d := range in.Dests {
			if inBody[d.Stmt] {
				continue
			}
			if roles[d.Stmt] == roleD && d.Port == 0 {
				continue
			}
			return nil
		}
	}

	// Exit machinery must be fed only by switch false arms and each other,
	// and must feed only itself: it is untouched until the engine refires
	// the final iteration.
	for s := range cb.Instrs {
		if roles[s] != roleExit {
			continue
		}
		for p := 0; p < 2; p++ {
			for _, a := range prods[s][p] {
				if a.falseArm || roles[a.from] == roleExit {
					continue
				}
				return nil
			}
		}
		in := &cb.Instrs[s]
		if in.Kind == graph.KindReturn {
			continue // returns route through the context's return dests
		}
		for _, d := range in.Dests {
			if roles[d.Stmt] != roleExit {
				return nil
			}
		}
	}

	// topo orders one DAG so every op follows its producers.
	topo := func(set []bool, allowTrueArm bool) ([]loopOp, bool) {
		var raw []loopOp
		for s := range cb.Instrs {
			if !set[s] {
				continue
			}
			op, ok := buildOp(s, set, allowTrueArm)
			if !ok {
				return nil, false
			}
			raw = append(raw, op)
		}
		placed := make([]bool, n)
		ops := make([]loopOp, 0, len(raw))
		for len(ops) < len(raw) {
			progress := false
			for _, r := range raw {
				ready := !placed[r.stmt]
				for _, d := range r.deps {
					ready = ready && placed[d]
				}
				if ready {
					placed[r.stmt] = true
					ops = append(ops, r)
					progress = true
				}
			}
			if !progress {
				return nil, false // cyclic: not a DAG
			}
		}
		return ops, true
	}
	predOps, ok := topo(inPred, false)
	if !ok {
		return nil
	}
	bodyOps, ok := topo(inBody, true)
	if !ok {
		return nil
	}

	// Each D carries a switch's true arm (an unchanged variable) or a
	// body result into the next iteration.
	next := make([]loopSrc, m)
	for k, ds := range dOf {
		arcs := prods[ds][0]
		if len(arcs) != 1 || arcs[0].falseArm {
			return nil
		}
		from := int(arcs[0].from)
		if j, ok := varOfSwitch[from]; ok && arcs[0].trueArm {
			next[k] = loopSrc{isVar: true, idx: j}
		} else if !arcs[0].trueArm && inBody[from] {
			next[k] = loopSrc{idx: from}
		} else {
			return nil
		}
	}
	return lowerInt(m, append(predOps, bodyOps...), predRoot, next)
}

// loopPlanFor lazily lowers (and caches) the loop plan for a block: nil
// when the block is not a recognized loop or its DAGs do not type under
// the int64 discipline.
func (x *Exec) loopPlanFor(id graph.BlockID) *intPlan {
	if x.lps == nil {
		x.lps = make([]*intPlan, len(x.cg.Blocks))
		x.lpDone = make([]bool, len(x.cg.Blocks))
	}
	if !x.lpDone[id] {
		x.lpDone[id] = true
		x.lps[id] = lowerLoop(x.cg.Block(id))
	}
	return x.lps[id]
}
