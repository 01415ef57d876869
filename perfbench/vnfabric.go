package main

import (
	"fmt"
	"time"

	"repro/internal/machines/cmmp"
	"repro/internal/machines/cmstar"
	"repro/internal/machines/ultra"
	"repro/internal/sim"
	"repro/internal/vn"
	"repro/internal/workload"
)

// Modelled machine sizes on vn-fabric.
const (
	cmmpProcessors  = 16 // C.mmp: 16 processors, 16 banks, crossbar
	ultraLogProcs   = 6  // Ultracomputer: 64-port omega network
	cmstarClusters  = 4
	cmstarPerClust  = 4
	cmstarWords     = 4096
	ticketBase      = 1024 // first ticket address on the Ultracomputer
	vnCycleLimit    = 50_000_000
	cmstarRemoteHop = 2 // each Cm* core streams from the cluster this far away
)

// faaLoopASM is the Ultracomputer hotspot loop: every processor
// FETCH-AND-ADDs the shared cell at address 0 r6 times and stores each
// ticket at its next private address (r4 preset).
const faaLoopASM = `
        li   r1, 0
        li   r2, 1
loop:   beq  r6, r0, done
        faa  r3, r1, r2
        st   r3, r4, 0
        addi r4, r4, 1
        addi r6, r6, -1
        j    loop
done:   halt
`

// vnFabric runs the von Neumann baselines on their switched fabrics.
type vnFabric struct {
	cmmpIters, ultraIters, cmstarIters int64
	counter, faa, memloop              *vn.Program
	ref                                *vnCounts
	op                                 uint64
}

func newVNFabric(seed uint64) bench {
	rng := sim.NewRNG(seed)
	band := func(lo, hi int) int64 { return int64(lo + rng.Intn(hi-lo+1)) }
	return &vnFabric{
		cmmpIters:   band(36, 44),
		ultraIters:  band(18, 22),
		cmstarIters: band(180, 220),
	}
}

// spreadSetup: set-up only re-derives the programs; passes do not change.
func (*vnFabric) spreadSetup() {}

func (v *vnFabric) setup(tr *tracer, op uint64) error {
	for _, a := range []struct {
		dst **vn.Program
		src string
	}{{&v.counter, workload.CounterLockASM}, {&v.faa, faaLoopASM}, {&v.memloop, workload.MemLoopASM}} {
		s := tr.begin("vn.assemble", -1, op)
		p, err := vn.Assemble(a.src)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("assemble: %w", err)
		}
		*a.dst = p
	}
	return nil
}

// vnCounts are one pass's simulated counts; they must repeat exactly.
type vnCounts struct {
	cycles, retired, busy, idle, memWait                   uint64
	steps, skipped, wakes                                  uint64
	xbarInjected, xbarRefused, xbarDelivered               uint64
	omegaInjected, omegaDelivered, servedComb, servedPlain uint64
	faas                                                   uint64 // FETCH-AND-ADDs issued per Ultracomputer run
	xbarLatencySum, omegaLatencySum                        float64
	// runCycles and runRetired are per machine run, in vnRuns order.
	runCycles, runRetired [len(vnRuns)]uint64
}

// vnRuns names a pass's machine runs, in order.
var vnRuns = [...]string{"cmmp", "ultra_combining", "ultra_plain", "cmstar"}

func (v *vnFabric) run(tr *tracer, until time.Time, m *measure) {
	var last *vnCounts
	for time.Now().Before(until) {
		v.op++
		c, ms, err := v.pass(tr, v.op)
		m.check(err)
		if err != nil {
			continue
		}
		if v.ref == nil {
			v.ref = c
		}
		if *c != *v.ref {
			m.check(fmt.Errorf("simulated counts changed between runs of the same input: %+v vs %+v", *v.ref, *c))
		} else {
			m.check(nil)
		}
		m.addPass(ms, float64(c.retired), float64(c.cycles))
		last = c
	}
	if last != nil {
		v.report(last, m)
	}
}

// engineOf is what every baseline exposes for the shared accounting.
type engineOf interface{ Engine() sim.Driver }

func (c *vnCounts) add(cycles sim.Cycle, m engineOf, cores []*vn.Core) {
	c.cycles += uint64(cycles)
	ec := m.Engine().Counters()
	c.steps += ec.StepsExecuted
	c.skipped += ec.CyclesSkipped
	c.wakes += ec.WakesEnqueued
	for _, core := range cores {
		s := core.Stats()
		c.retired += s.Retired.Value()
		c.busy += s.Busy.Value()
		c.idle += s.Idle.Value()
		c.memWait += s.MemWait.Value()
	}
}

// pass runs the four machine configurations once each. ms is the pass's
// process CPU time on the equal-weight mix (see mixMs).
func (v *vnFabric) pass(tr *tracer, op uint64) (*vnCounts, float64, error) {
	c := &vnCounts{}
	var mix mixMs
	runs := []func() error{
		func() error { return v.runCmmp(tr, op, c) },
		func() error { return v.runUltra(tr, op, true, c) },
		func() error { return v.runUltra(tr, op, false, c) },
		func() error { return v.runCmstar(tr, op, c) },
	}
	for i, run := range runs {
		cpu, retired, cycles := processCPU(), c.retired, c.cycles
		if err := run(); err != nil {
			return nil, 0, err
		}
		c.runRetired[i], c.runCycles[i] = c.retired-retired, c.cycles-cycles
		mix.add(processCPU()-cpu, c.runRetired[i], len(runs))
	}
	return c, float64(mix), nil
}

func (v *vnFabric) runCmmp(tr *tracer, op uint64, c *vnCounts) error {
	m := cmmp.New(cmmp.Config{Processors: cmmpProcessors, Banks: cmmpProcessors}, v.counter, 1)
	cores := make([]*vn.Core, cmmpProcessors)
	for p := range cores {
		cores[p] = m.Core(p)
		cores[p].Context(0).SetReg(5, v.cmmpIters)
	}
	s := tr.begin("cmmp.run", -1, op)
	cycles, err := m.Run(vnCycleLimit)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("cmmp: %w", err)
	}
	if got, want := m.Peek(1), v.cmmpIters*cmmpProcessors; got != want {
		return fmt.Errorf("cmmp: counter = %d, want %d", got, want)
	}
	c.add(cycles, m, cores)
	st := m.Crossbar().Stats()
	c.xbarInjected += st.Injected.Value()
	c.xbarRefused += st.Refused.Value()
	c.xbarDelivered += st.Delivered.Value()
	c.xbarLatencySum += st.MeanLatency() * float64(st.Delivered.Value())
	return nil
}

func (v *vnFabric) runUltra(tr *tracer, op uint64, combining bool, c *vnCounts) error {
	m := ultra.New(ultra.Config{LogProcessors: ultraLogProcs, Combining: combining}, v.faa)
	n := m.NumProcessors()
	cores := make([]*vn.Core, n)
	for p := range cores {
		cores[p] = m.Core(p)
		h := cores[p].Context(0)
		h.SetReg(4, vn.Word(ticketBase+int64(p)*v.ultraIters))
		h.SetReg(6, v.ultraIters)
	}
	name := "ultra.run.plain"
	if combining {
		name = "ultra.run.combining"
	}
	s := tr.begin(name, -1, op)
	cycles, err := m.Run(vnCycleLimit)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("ultra: %w", err)
	}
	total := int64(n) * v.ultraIters
	if err := checkTickets(m, total); err != nil {
		return err
	}
	c.add(cycles, m, cores)
	var served uint64
	for b := 0; b < n; b++ {
		served += m.BankServed(b)
	}
	st := m.Network().Stats()
	c.omegaInjected += st.Injected.Value()
	c.omegaDelivered += st.Delivered.Value()
	c.omegaLatencySum += st.MeanLatency() * float64(st.Delivered.Value())
	// Each processor issues one FETCH-AND-ADD and one ticket store per
	// iteration. Without combining, a bank serves every one of them.
	c.faas = uint64(total)
	if combining {
		c.servedComb = served
	} else if c.servedPlain = served; served != 2*c.faas {
		return fmt.Errorf("ultra: plain banks served %d requests, want %d FAAs and stores", served, 2*c.faas)
	}
	return nil
}

// checkTickets verifies the FETCH-AND-ADD semantics: the hot cell holds
// the number of increments, and the tickets handed out form a permutation
// of 0..total-1.
func checkTickets(m *ultra.Machine, total int64) error {
	if got := m.Peek(0); got != total {
		return fmt.Errorf("ultra: hot cell = %d, want %d", got, total)
	}
	seen := make([]bool, total)
	for a := int64(0); a < total; a++ {
		t := m.Peek(uint32(ticketBase + a))
		if t < 0 || t >= total || seen[t] {
			return fmt.Errorf("ultra: tickets are not a permutation (ticket %d at %d)", t, ticketBase+a)
		}
		seen[t] = true
	}
	return nil
}

func (v *vnFabric) runCmstar(tr *tracer, op uint64, c *vnCounts) error {
	m := cmstar.New(cmstar.Config{Clusters: cmstarClusters, CoresPerCluster: cmstarPerClust, ClusterWords: cmstarWords}, v.memloop)
	for a := uint32(0); a < cmstarClusters*cmstarWords; a++ {
		m.Poke(a, vn.Word(a%5+1))
	}
	cores := make([]*vn.Core, m.NumCores())
	want := make([]int64, len(cores))
	for i := range cores {
		cores[i] = m.CoreAt(i)
		cl, k := i/cmstarPerClust, i%cmstarPerClust
		base := int64(((cl+cmstarRemoteHop)%cmstarClusters)*cmstarWords) + int64(k)*v.cmstarIters
		h := cores[i].Context(0)
		h.SetReg(1, base)
		h.SetReg(4, v.cmstarIters)
		for a := base; a < base+v.cmstarIters; a++ {
			want[i] += a%5 + 1
		}
	}
	s := tr.begin("cmstar.run", -1, op)
	cycles, err := m.Run(vnCycleLimit)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("cmstar: %w", err)
	}
	for i, core := range cores {
		if got := core.Context(0).Reg(3); got != want[i] {
			return fmt.Errorf("cmstar: core %d summed %d, want %d", i, got, want[i])
		}
	}
	c.add(cycles, m, cores)
	return nil
}

func (v *vnFabric) report(c *vnCounts, m *measure) {
	l := m.layer
	l["vn.retired"] = float64(c.retired)
	l["vn.busy_ratio"] = float64(c.busy) / float64(c.busy+c.idle)
	l["vn.mem_wait_cycles"] = float64(c.memWait)
	l["cmmp.instr_per_increment"] = float64(c.runRetired[0]) / float64(v.cmmpIters*cmmpProcessors)
	l["sim.cycles"] = float64(c.cycles)
	l["sim.steps_executed"] = float64(c.steps)
	l["sim.cycles_skipped"] = float64(c.skipped)
	l["sim.wakes_enqueued"] = float64(c.wakes)
	l["sim.steps_per_cycle"] = float64(c.steps) / float64(c.cycles)
	l["network.crossbar.injected"] = float64(c.xbarInjected)
	l["network.crossbar.refused_ratio"] = float64(c.xbarRefused) / float64(c.xbarInjected+c.xbarRefused)
	l["network.crossbar.mean_latency_cycles"] = c.xbarLatencySum / float64(c.xbarDelivered)
	l["network.omega.injected"] = float64(c.omegaInjected)
	l["network.omega.mean_latency_cycles"] = c.omegaLatencySum / float64(c.omegaDelivered)
	// The share of FETCH-AND-ADDs combined in the switches, so no bank
	// serves them: 1 − banks served / FAAs issued. The ticket stores,
	// one per FAA, never combine and are taken out of the served count.
	l["ultra.combine_ratio"] = 1 - float64(c.servedComb-c.faas)/float64(c.faas)
	for i, name := range vnRuns {
		m.programs[name+".cycles"] = float64(c.runCycles[i])
		m.programs[name+".retired"] = float64(c.runRetired[i])
	}
	m.programs["cmmp.iters"] = float64(v.cmmpIters)
	m.programs["ultra.iters"] = float64(v.ultraIters)
	m.programs["cmstar.iters"] = float64(v.cmstarIters)
}
