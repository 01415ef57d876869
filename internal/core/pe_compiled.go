package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/istructure"
	"repro/internal/token"
)

// This file is the compiled-mode ALU stage: the machine executes a
// graph.CompiledGraph plan instead of walking the IR per token. Each
// function here mirrors an interpreted counterpart in pe.go — same case
// order, same error strings, same statistics — and must stay observably
// identical to it; the conformance suite's compiled-equivalence oracle and
// the -compiled golden runs check that bit for bit. What changes is only
// host-side work: dispatch switches on the precomputed ExecKind, literals
// and destination nt fields come from the plan (no instruction fetches
// when building result tokens), and trace formatting is skipped when
// tracing is off.

// executeC is the compiled counterpart of execute.
func (pe *PE) executeC(in *graph.CInstr, e enabledInstr) {
	act := e.act
	vals := e.vals
	if in.HasLit {
		vals[in.LitPort] = in.Lit
	}
	switch in.Kind {
	case graph.KindPure:
		v, err := graph.Eval(in.Op, vals[0], vals[1])
		if err != nil {
			pe.m.fail(fmt.Errorf("core: %v at %s %s", err, act, in.Op))
			return
		}
		pe.sendToDestsC(act, in.Dests, v)
	case graph.KindSwitch:
		c, err := vals[1].AsBool()
		if err != nil {
			pe.m.fail(fmt.Errorf("core: switch control at %s: %v", act, err))
			return
		}
		if c {
			pe.sendToDestsC(act, in.Dests, vals[0])
		} else {
			pe.sendToDestsC(act, in.DestsFalse, vals[0])
		}
	case graph.KindGetContext, graph.KindAllocate:
		// d=2: manager request to the PE controller
		pe.stats.TokensD2.Inc()
		pe.ctrlQ.Push(ctrlRequest{act: act, cin: in, value: vals[0]})
	case graph.KindSendArg:
		pe.execSendArgC(in, act, vals)
	case graph.KindD:
		pe.sendToDestsInitC(act, in.Dests, vals[0], act.Initiation+1)
	case graph.KindDInv:
		pe.sendToDestsInitC(act, in.Dests, vals[0], 1)
	case graph.KindReturn:
		pe.execReturnC(in, act, vals)
	case graph.KindFetch:
		addr, err := vals[0].AsInt()
		if err != nil || addr < 0 || uint32(addr) >= pe.m.nextAddr {
			pe.m.fail(fmt.Errorf("core: fetch at %s: bad address %s", act, vals[0]))
			return
		}
		d := in.Dests[0]
		rt := replyTag{
			activity: token.ActivityName{
				Context:    act.Context,
				CodeBlock:  act.CodeBlock,
				Statement:  d.Stmt,
				Initiation: act.Initiation,
			},
			port: d.Port,
			nt:   d.NT,
		}
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceISRead, "addr=%d for %s", addr, traceActivity(rt.activity))
		}
		pe.emitIS(isRequest{op: istructure.OpRead, addr: uint32(addr), replyTo: rt})
	case graph.KindStore:
		addr, err := vals[0].AsInt()
		if err != nil || addr < 0 || uint32(addr) >= pe.m.nextAddr {
			pe.m.fail(fmt.Errorf("core: store at %s: bad address %s", act, vals[0]))
			return
		}
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceISWrite, "addr=%d value=%s", addr, vals[1])
		}
		pe.emitIS(isRequest{op: istructure.OpWrite, addr: uint32(addr), value: vals[1]})
	case graph.KindSink, graph.KindNop:
		// absorbed
	default:
		pe.m.fail(fmt.Errorf("core: cannot execute %s", in.Op))
	}
}

// execCtrlC is the compiled counterpart of execCtrl.
func (pe *PE) execCtrlC(r ctrlRequest) {
	in := r.cin
	switch in.Kind {
	case graph.KindGetContext:
		u := pe.m.getContextC(in.Target, r.act, graph.BlockID(r.act.CodeBlock), in.RetDests)
		pe.trace(TraceGetCtx, "u=%d for block %d", u, in.Target)
		pe.sendToDestsC(r.act, in.Dests, token.Int(int64(u)))
	case graph.KindAllocate:
		n, err := r.value.AsInt()
		if err != nil || n < 0 {
			pe.m.fail(fmt.Errorf("core: allocate at %s: bad size %s", r.act, r.value))
			return
		}
		base, err := pe.m.allocate(uint32(n))
		if err != nil {
			pe.m.fail(err)
			return
		}
		pe.trace(TraceAlloc, "base=%d len=%d", base, n)
		pe.sendToDestsC(r.act, in.Dests, token.NewRef(token.Ref{Base: base, Len: uint32(n)}))
	default:
		pe.m.fail(fmt.Errorf("core: controller cannot service %s", in.Op))
	}
}

// execSendArgC is the compiled counterpart of execSendArg: the callee's
// entry statement and its nt come from the plan's CBlock. Serial contexts
// only.
func (pe *PE) execSendArgC(in *graph.CInstr, act token.ActivityName, vals [2]token.Value) {
	h, err := vals[0].AsInt()
	if err != nil {
		pe.m.fail(fmt.Errorf("core: %s handle at %s: %v", in.Op, act, err))
		return
	}
	rec := pe.m.ctxLookup(token.Context(h))
	if rec == nil {
		pe.m.fail(fmt.Errorf("core: %s at %s: unknown context %d", in.Op, act, h))
		return
	}
	callee := pe.m.plan.Block(rec.block)
	if int(in.ArgIndex) >= len(callee.Entries) {
		pe.m.fail(fmt.Errorf("core: %s at %s: arg %d out of range", in.Op, act, in.ArgIndex))
		return
	}
	rec.argsSent++
	newAct := token.ActivityName{
		Context:    token.Context(h),
		CodeBlock:  uint16(rec.block),
		Statement:  callee.Entries[in.ArgIndex],
		Initiation: 1,
	}
	nt := callee.EntryNT[in.ArgIndex]
	pe.m.maybeFreeContext(token.Context(h), rec)
	pe.sendTokenC(newAct, nt, 0, vals[1])
}

// execReturnC is the compiled counterpart of execReturn: return
// destinations are the plan's CDest records, which carry the receiver's
// nt. Serial contexts only.
func (pe *PE) execReturnC(in *graph.CInstr, act token.ActivityName, vals [2]token.Value) {
	if act.Context == 0 {
		pe.trace(TraceResult, "%s", vals[0])
		pe.m.results = append(pe.m.results, vals[0])
		return
	}
	rec := pe.m.ctxLookup(act.Context)
	if rec == nil {
		pe.m.fail(fmt.Errorf("core: %s at %s: unknown context", in.Op, act))
		return
	}
	rec.returned = true
	for _, d := range rec.returnDestsC {
		newAct := token.ActivityName{
			Context:    rec.parent.Context,
			CodeBlock:  uint16(rec.parentBlock),
			Statement:  d.Stmt,
			Initiation: rec.parent.Initiation,
		}
		pe.sendTokenC(newAct, d.NT, d.Port, vals[0])
	}
	pe.m.maybeFreeContext(act.Context, rec)
}

// sendToDestsC builds result tokens from flattened plan destinations: the
// nt field rides in the CDest, so no instruction is fetched per token.
func (pe *PE) sendToDestsC(act token.ActivityName, dests []graph.CDest, v token.Value) {
	pe.sendToDestsInitC(act, dests, v, act.Initiation)
}

// sendToDestsInitC is sendToDestsC with an explicit initiation number (for
// D and D⁻¹).
func (pe *PE) sendToDestsInitC(act token.ActivityName, dests []graph.CDest, v token.Value, initiation uint32) {
	for _, d := range dests {
		newAct := token.ActivityName{
			Context:    act.Context,
			CodeBlock:  act.CodeBlock,
			Statement:  d.Stmt,
			Initiation: initiation,
		}
		t := token.Token{
			Class: token.Normal,
			Tag:   token.Tag{Activity: newAct},
			NT:    d.NT,
			Port:  d.Port,
			Value: v,
		}
		t.PE = t.Tag.HomePE(pe.m.cfg.PEs)
		pe.emit(t)
	}
}

// sendTokenC emits a fully-formed token whose receiver nt is already known
// from the plan (cross-block sends).
func (pe *PE) sendTokenC(act token.ActivityName, nt, port uint8, v token.Value) {
	t := token.Token{
		Class: token.Normal,
		Tag:   token.Tag{Activity: act},
		NT:    nt,
		Port:  port,
		Value: v,
	}
	t.PE = t.Tag.HomePE(pe.m.cfg.PEs)
	pe.emit(t)
}
