package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// ttdaPEs is the modelled machine size; the fabric is the default ideal
// network with its default latency.
const (
	ttdaPEs     = 32
	ttdaLatency = 2
	// opUnits is the work an operation's latency is scaled to on the
	// simulation workloads: 100k simulated instructions.
	opUnits = 1e5
)

// kernelProg is one catalog program with its seeded argument and the
// answer its pure-Go reference gives.
type kernelProg struct {
	name string
	src  string
	arg  int64
	want int64
	prog *graph.Program
}

// ttdaKernel runs the catalog mix sequentially on the cycle-accurate TTDA.
type ttdaKernel struct {
	progs []*kernelProg // in seeded run order
	ref   *passCounts   // the first pass's counts; later passes must match
	op    uint64
}

// kernelInputs derives the mix from seed: the mergesort and sumloop
// arguments within their bands, then the run order. matmul and fib keep
// fixed arguments: one step of either changes its work and live heap by
// 40-60%, too coarse for a band.
func kernelInputs(seed uint64) []*kernelProg {
	rng := sim.NewRNG(seed)
	band := func(lo, hi int) int64 { return int64(lo + rng.Intn(hi-lo+1)) }
	ps := []*kernelProg{
		{name: "matmul", src: workload.MatMulID, arg: 8},
		{name: "fib", src: workload.FibID, arg: 15},
		{name: "mergesort", src: workload.MergeSortID, arg: band(56, 72)},
		{name: "sumloop", src: workload.SumLoopID, arg: band(2500, 3500)},
	}
	for _, p := range ps {
		p.want = kernelAnswer(p.name, p.arg)
	}
	order := rng.Perm(len(ps))
	out := make([]*kernelProg, len(ps))
	for i, j := range order {
		out[i] = ps[j]
	}
	return out
}

// kernelAnswer is each program's pure-Go reference.
func kernelAnswer(name string, n int64) int64 {
	switch name {
	case "matmul":
		return workload.MatMulChecksum(int(n))
	case "mergesort":
		return workload.MergeSortChecksum(int(n))
	case "fib":
		a, b := int64(0), int64(1)
		for i := int64(0); i < n; i++ {
			a, b = b, a+b
		}
		return a
	default: // sumloop
		return n * (n + 1) / 2
	}
}

func newTTDAKernel(seed uint64) bench { return &ttdaKernel{progs: kernelInputs(seed)} }

// spreadSetup: set-up only re-derives the programs; passes do not change.
func (*ttdaKernel) spreadSetup() {}

func (k *ttdaKernel) setup(tr *tracer, op uint64) error {
	for _, p := range k.progs {
		s := tr.begin("id.compile", -1, op)
		prog, err := id.Compile(p.src)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("compile %s: %w", p.name, err)
		}
		p.prog = prog
	}
	return nil
}

// passCounts are the simulated counts of one pass; they must repeat
// exactly from pass to pass.
type passCounts struct {
	fired, cycles, matches, netSends, bypass, isReads, isWrites, deferred uint64
	ctxAllocated, steps, skipped, wakes, netInjected, netDelivered        uint64
	matchStoreMax, ctxPeak                                                int64
	aluBusyCycles, netLatencySum                                          float64
	perProg                                                               map[string][2]uint64
}

func (k *ttdaKernel) run(tr *tracer, until time.Time, m *measure) {
	var last *passCounts
	for time.Now().Before(until) {
		k.op++
		pc, ms, err := k.pass(tr, k.op)
		m.check(err)
		if err != nil {
			continue
		}
		if k.ref == nil {
			k.ref = pc
		}
		m.check(sameCounts(k.ref, pc))
		m.addPass(ms, float64(pc.fired), float64(pc.cycles))
		last = pc
	}
	if last != nil {
		k.report(last, m)
	}
}

// pass runs every program once, in the seeded order, on a fresh machine.
// ms is the pass's process CPU time on the equal-weight mix (see mixMs).
func (k *ttdaKernel) pass(tr *tracer, op uint64) (pc *passCounts, ms float64, err error) {
	pc = &passCounts{perProg: map[string][2]uint64{}}
	var mix mixMs
	for _, p := range k.progs {
		cpu := processCPU()
		cfg := core.Config{PEs: ttdaPEs}
		var tn *timedNet
		if tr != nil {
			tn = &timedNet{Network: network.NewIdeal(ttdaPEs, ttdaLatency)}
			cfg.Net = tn
		}
		b := tr.begin("core.build", -1, op)
		mach := core.NewMachine(cfg, p.prog)
		tr.end(b)
		r := tr.begin("core.run."+p.name, -1, op)
		res, err := mach.Run(1<<40, token.Int(p.arg))
		tr.end(r)
		if tn != nil {
			n := tr.child("network", r, op, time.Duration(tn.netNs))
			tr.child("network.deliver", n, op, time.Duration(tn.deliverNs))
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ttda %s(%d): %w", p.name, p.arg, err)
		}
		if len(res) != 1 || res[0].Kind != token.KindInt || res[0].I != p.want {
			return nil, 0, fmt.Errorf("ttda %s(%d) = %v, want %d", p.name, p.arg, res, p.want)
		}
		s := mach.Summarize()
		mix.add(processCPU()-cpu, s.Fired, len(k.progs))
		ec := mach.Engine().Counters()
		ns := mach.Network().Stats()
		pc.fired += s.Fired
		pc.cycles += s.Cycles
		pc.matches += s.Matches
		pc.netSends += s.NetSends
		pc.bypass += s.LocalBypass
		pc.isReads += s.ISReads
		pc.isWrites += s.ISWrites
		pc.deferred += s.DeferredReads
		pc.ctxAllocated += s.CtxAllocated
		pc.steps += ec.StepsExecuted
		pc.skipped += ec.CyclesSkipped
		pc.wakes += ec.WakesEnqueued
		pc.netInjected += ns.Injected.Value()
		pc.netDelivered += ns.Delivered.Value()
		pc.netLatencySum += ns.MeanLatency() * float64(ns.Delivered.Value())
		pc.aluBusyCycles += s.ALUUtilization * float64(s.Cycles)
		pc.matchStoreMax = max(pc.matchStoreMax, s.MatchStoreMax)
		pc.ctxPeak = max(pc.ctxPeak, int64(s.CtxPeak))
		pc.perProg[p.name] = [2]uint64{s.Cycles, s.Fired}
	}
	return pc, float64(mix), nil
}

// sameCounts reports a simulated count that differs between two runs of
// the same input.
func sameCounts(ref, got *passCounts) error {
	a, b := *ref, *got
	a.perProg, b.perProg = nil, nil
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ref.perProg, got.perProg) {
		return fmt.Errorf("simulated counts changed between runs of the same input: %+v vs %+v", a, b)
	}
	return nil
}

func (k *ttdaKernel) report(pc *passCounts, m *measure) {
	l := m.layer
	l["core.fired"] = float64(pc.fired)
	l["core.matches"] = float64(pc.matches)
	l["core.match_store_max"] = float64(pc.matchStoreMax)
	l["core.alu_util"] = pc.aluBusyCycles / float64(pc.cycles)
	l["core.local_bypass_ratio"] = float64(pc.bypass) / float64(pc.bypass+pc.netSends)
	l["core.ctx_allocated"] = float64(pc.ctxAllocated)
	l["core.ctx_peak"] = float64(pc.ctxPeak)
	l["sim.cycles"] = float64(pc.cycles)
	l["istructure.reads"] = float64(pc.isReads)
	l["istructure.writes"] = float64(pc.isWrites)
	l["istructure.deferred_ratio"] = float64(pc.deferred) / float64(pc.isReads)
	l["network.injected"] = float64(pc.netInjected)
	l["network.mean_latency_cycles"] = pc.netLatencySum / float64(pc.netDelivered)
	l["sim.steps_executed"] = float64(pc.steps)
	l["sim.cycles_skipped"] = float64(pc.skipped)
	l["sim.wakes_enqueued"] = float64(pc.wakes)
	l["sim.steps_per_cycle"] = float64(pc.steps) / float64(pc.cycles)
	for name, cf := range pc.perProg {
		m.programs[name+".cycles"] = float64(cf[0])
		m.programs[name+".firings"] = float64(cf[1])
	}
	for _, p := range k.progs {
		m.programs[p.name+".arg"] = float64(p.arg)
	}
}
