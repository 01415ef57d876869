package conformance

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/cmstar"
	"repro/internal/machines/connection"
	"repro/internal/machines/hep"
	"repro/internal/machines/ultra"
	"repro/internal/machines/vliw"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
)

// --- oracle 5: checkpoint equivalence ---------------------------------
//
// For every machine in the fleet: run the generated program straight
// through, then run it again paused at a seed-derived mid-run cycle,
// serialize, restore into a freshly built machine, and resume. The split
// run must match the uninterrupted one on the FULL snapshot — results,
// cycles, machine statistics, and engine counters — and the checkpoint
// stream itself must be canonical (restore→save byte-identical) with the
// end-of-run states of both runs byte-equal.

// resumable is the machine surface the checkpoint oracle drives: run
// advances at most limit further cycles and reports completion; snapshot
// is valid once run reported done.
type resumable interface {
	sim.Stateful
	run(limit sim.Cycle) (done bool, err error)
	snapshot() (Snapshot, error)
}

// pausable is the shared Run shape of the Section-1.2 baselines.
type pausable interface {
	sim.Stateful
	Run(limit sim.Cycle) (sim.Cycle, error)
}

// baselineAdapter adapts a vn-family machine: a cycle-limit error from Run
// marks a resumable pause, anything else a real failure.
type baselineAdapter struct {
	m    pausable
	snap func() (Snapshot, error)
}

func (a *baselineAdapter) SaveState(e *sim.Enc)       { a.m.SaveState(e) }
func (a *baselineAdapter) LoadState(d *sim.Dec) error { return a.m.LoadState(d) }

func (a *baselineAdapter) run(limit sim.Cycle) (bool, error) {
	if _, err := a.m.Run(limit); err != nil {
		if strings.Contains(err.Error(), "did not halt") {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

func (a *baselineAdapter) snapshot() (Snapshot, error) { return a.snap() }

// vnMachine couples the single vn core, its latency memory, and the
// engine into one checkpointable unit — the composition runVN drives.
type vnMachine struct {
	eng *sim.Engine
	mem *vn.LatencyMemory
	cpu *vn.Core
}

func newVNMachine(c *compiled, contexts int, latency sim.Cycle) *vnMachine {
	mem := vn.NewLatencyMemory(latency)
	cpu := vn.NewCore(c.asm, mem, contexts)
	eng := sim.NewEngine()
	eng.Register(mem)
	eng.Register(cpu)
	return &vnMachine{eng: eng, mem: mem, cpu: cpu}
}

func (v *vnMachine) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := v.eng.Run(func() bool { return v.cpu.Halted() && v.mem.Pending() == 0 }, limit)
	if !ok {
		return elapsed, fmt.Errorf("vn: did not halt within %d cycles", limit)
	}
	return elapsed, nil
}

func (v *vnMachine) SaveState(e *sim.Enc) {
	e.Tag("vnmach", 1)
	v.eng.SaveState(e)
	v.mem.SaveTo(e)
	v.cpu.SaveState(e)
}

func (v *vnMachine) LoadState(d *sim.Dec) error {
	if err := d.Tag("vnmach", 1); err != nil {
		return err
	}
	if err := v.eng.LoadState(d); err != nil {
		return err
	}
	if err := v.mem.LoadFrom(d, vn.Resolver([]*vn.Core{v.cpu})); err != nil {
		return err
	}
	return v.cpu.LoadState(d)
}

// ttdaAdapter drives the tagged-token machine. Entry arguments are passed
// on every Run call; the machine injects them only when starting fresh, so
// resumed and restored runs continue instead of restarting.
type ttdaAdapter struct {
	m    *core.Machine
	args []token.Value
	res  []token.Value
}

func newTTDAAdapter(c *compiled) *ttdaAdapter {
	m := core.NewMachineWithPlan(core.Config{PEs: 2, NetLatency: 4}, c.plan)
	return &ttdaAdapter{m: m, args: c.args}
}

func (a *ttdaAdapter) SaveState(e *sim.Enc)       { a.m.SaveState(e) }
func (a *ttdaAdapter) LoadState(d *sim.Dec) error { return a.m.LoadState(d) }

func (a *ttdaAdapter) run(limit sim.Cycle) (bool, error) {
	res, err := a.m.Run(limit, a.args...)
	if err != nil {
		if strings.Contains(err.Error(), "did not finish") {
			return false, nil
		}
		return false, err
	}
	a.res = res
	return true, nil
}

func (a *ttdaAdapter) snapshot() (Snapshot, error) {
	if len(a.res) != 1 {
		return Snapshot{}, fmt.Errorf("ttda: %d results", len(a.res))
	}
	v, err := a.res[0].AsInt()
	if err != nil {
		return Snapshot{}, err
	}
	sum := a.m.Summarize()
	return Snapshot{
		Result: v,
		Cycles: sum.Cycles,
		Extra:  [4]uint64{sum.Fired, sum.Matches, sum.NetSends, sum.ISReads + sum.ISWrites},
		Engine: a.m.Engine().Counters(),
	}, nil
}

// vliwAdapter drives the resumable VLIW runner.
type vliwAdapter struct {
	m   *vliw.Machine
	res vliw.Result
}

func (a *vliwAdapter) SaveState(e *sim.Enc)       { a.m.SaveState(e) }
func (a *vliwAdapter) LoadState(d *sim.Dec) error { return a.m.LoadState(d) }

func (a *vliwAdapter) run(limit sim.Cycle) (bool, error) {
	res, done := a.m.Run(limit)
	a.res = res
	return done, nil
}

func (a *vliwAdapter) snapshot() (Snapshot, error) {
	return Snapshot{
		Cycles: uint64(a.res.Cycles),
		Extra:  [4]uint64{a.res.TotalOps, uint64(a.res.StallCycles), a.res.Misses, a.res.Loads},
		Engine: a.res.Engine,
	}, nil
}

// checkCheckpoint runs the split-run check across the fleet.
func checkCheckpoint(ct *counter, c *compiled) {
	rng := sim.NewRNG(c.w.Seed ^ 0x5EEDC4C7)

	vnSnap := func(eng func() sim.Driver, result func() int64, cpu func() *vn.Core, extra func() [4]uint64) func() (Snapshot, error) {
		return func() (Snapshot, error) {
			s := Snapshot{
				Result: result(),
				Cycles: uint64(eng().Now()),
				Engine: eng().Counters(),
			}
			if extra != nil {
				s.Extra = extra()
			}
			coreStats(&s, cpu())
			return s, nil
		}
	}

	entries := []struct {
		name  string
		build func() resumable
	}{
		{"ttda", func() resumable { return newTTDAAdapter(c) }},
		{"vn", func() resumable {
			m := newVNMachine(c, 2, 4)
			return &baselineAdapter{m: m, snap: vnSnap(
				func() sim.Driver { return m.eng },
				func() int64 { return int64(m.mem.Peek(ResultAddr)) },
				func() *vn.Core { return m.cpu }, nil)}
		}},
		{"vliw", func() resumable {
			return &vliwAdapter{m: vliw.NewMachine(vliwSchedule(c.w), vliw.Config{
				HitLatency: 1, MissLatency: 8, MissRate: 0.3, Seed: c.w.Seed + 1,
			})}
		}},
		{"cmmp", func() resumable {
			m := cmmp.New(cmmp.Config{Processors: 2, Banks: 2, SwitchDelay: 2}, c.asm, 1)
			park(2, 1, m.Core, c.asm)
			return &baselineAdapter{m: m, snap: vnSnap(
				m.Engine,
				func() int64 { return int64(m.Peek(ResultAddr)) },
				func() *vn.Core { return m.Core(0) },
				func() [4]uint64 { return [4]uint64{m.Crossbar().Stats().Delivered.Value()} })}
		}},
		{"cmstar", func() resumable {
			m := cmstar.New(cmstarConfig(8), c.asm)
			park(m.NumCores(), 1, m.CoreAt, c.asm)
			return &baselineAdapter{m: m, snap: vnSnap(
				m.Engine,
				func() int64 { return int64(m.Peek(ResultAddr)) },
				func() *vn.Core { return m.CoreAt(0) },
				func() [4]uint64 {
					return [4]uint64{m.Stats().LocalRefs.Value(), m.Stats().RemoteRefs.Value()}
				})}
		}},
		{"ultra", func() resumable {
			m := ultra.New(ultra.Config{LogProcessors: 2, Combining: true}, c.asm)
			park(m.NumProcessors(), 1, m.Core, c.asm)
			return &baselineAdapter{m: m, snap: vnSnap(
				m.Engine,
				func() int64 { return int64(m.Peek(ResultAddr)) },
				func() *vn.Core { return m.Core(0) },
				func() [4]uint64 { return [4]uint64{m.BankServed(0), m.Network().CombineOps.Value()} })}
		}},
		{"hep", func() resumable {
			m := hep.New(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4}, c.asm)
			park(2, 1, m.Core, c.asm)
			return &baselineAdapter{m: m, snap: vnSnap(
				m.Engine,
				func() int64 { return int64(m.Memory().Peek(ResultAddr)) },
				func() *vn.Core { return m.Core(0) }, nil)}
		}},
	}

	for _, en := range entries {
		splitCheck(ct, rng, en.name, en.build)
	}
	checkConnectionCheckpoint(ct, c)
}

// splitCheck is one machine's pause/serialize/restore/resume equivalence
// check at a seed-derived random mid-run cycle.
func splitCheck(ct *counter, rng *sim.RNG, name string, build func() resumable) {
	ref := build()
	done, err := ref.run(runLimit)
	if err != nil || !done {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("reference run: done=%v err=%v", done, err))
		return
	}
	want, err := ref.snapshot()
	if err != nil {
		ct.fail(OracleCheckpoint, name, err)
		return
	}
	refBytes := sim.Checkpoint(ref)
	total := want.Cycles
	if total < 2 {
		// Nothing mid-run to pause at; canonical-encoding still holds by
		// construction of the reference bytes.
		ct.check(OracleCheckpoint, name, true, func() string { return "" })
		return
	}
	pause := sim.Cycle(1 + rng.Intn(int(total-1)))

	m := build()
	done, err = m.run(pause)
	if err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("pause at cycle %d: %v", pause, err))
		return
	}
	if done {
		ct.checkAt(OracleCheckpoint, name, total, false, func() string {
			return fmt.Sprintf("finished within %d cycles; the uninterrupted run took %d", pause, total)
		})
		return
	}
	data := sim.Checkpoint(m)

	fresh := build()
	if err := sim.Restore(fresh, data); err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("restore at cycle %d: %v", pause, err))
		return
	}
	if re := sim.Checkpoint(fresh); !bytes.Equal(re, data) {
		ct.checkAt(OracleCheckpoint, name, total, false, func() string {
			return fmt.Sprintf("restore→save at cycle %d is not byte-identical (%d vs %d bytes)", pause, len(re), len(data))
		})
		return
	}
	done, err = fresh.run(runLimit)
	if err != nil || !done {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("resume from cycle %d: done=%v err=%v", pause, done, err))
		return
	}
	got, err := fresh.snapshot()
	if err != nil {
		ct.fail(OracleCheckpoint, name, err)
		return
	}
	ct.checkAt(OracleCheckpoint, name, total, got == want, func() string {
		return fmt.Sprintf("run split at cycle %d diverged from the uninterrupted run:\n  straight %+v\n  split    %+v", pause, want, got)
	})
	ct.checkAt(OracleCheckpoint, name, total, bytes.Equal(sim.Checkpoint(fresh), refBytes), func() string {
		return fmt.Sprintf("end-of-run checkpoint differs after a split at cycle %d", pause)
	})
}

// checkConnectionCheckpoint exercises the SIMD array's instruction-boundary
// checkpoint: save after the compute broadcast, restore into a fresh
// array, and run the routing instruction there. The sequencer is host code,
// so mid-instruction pauses do not exist by construction.
func checkConnectionCheckpoint(ct *counter, c *compiled) {
	const name = "connection"
	wantV, wantSteps, err := runConnection(c)
	if err != nil {
		ct.fail(OracleCheckpoint, name, err)
		return
	}

	w := c.w
	m := connection.New(connection.Config{LogPEs: 4}, 1)
	m.Compute(func(pe int, mem []int64) {
		if pe >= 1 && pe <= int(w.N) {
			mem[0] = w.Body.eval(int64(pe))
		}
	})
	data := sim.Checkpoint(m)

	fresh := connection.New(connection.Config{LogPEs: 4}, 1)
	if err := sim.Restore(fresh, data); err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("restore at instruction boundary: %v", err))
		return
	}
	if re := sim.Checkpoint(fresh); !bytes.Equal(re, data) {
		ct.check(OracleCheckpoint, name, false, func() string {
			return fmt.Sprintf("restore→save is not byte-identical (%d vs %d bytes)", len(re), len(data))
		})
		return
	}
	msgs := make([]connection.Message, 0, w.N)
	for pe := 1; pe <= int(w.N); pe++ {
		msgs = append(msgs, connection.Message{From: pe, To: 0, Value: fresh.Mem(pe)[0]})
	}
	acc := w.Init
	steps := fresh.Route(msgs, func(to int, v int64) { acc = w.fold(acc, v) })
	ct.checkAt(OracleCheckpoint, name, uint64(wantSteps), acc == wantV && steps == wantSteps, func() string {
		return fmt.Sprintf("restored array diverged: result %d/%d, route steps %d/%d", acc, wantV, steps, wantSteps)
	})
}

// MaterializeCheckpoint is the time-travel debugging entry point a
// Violation's repro line names: re-run seed's TTDA machine, pause it at
// cycle at, write the checkpoint to path, and verify the artifact resumes
// to completion. It returns a human summary of what was written.
func MaterializeCheckpoint(seed uint64, at sim.Cycle, path string) (string, error) {
	w := Generate(seed)
	c, err := compile(w)
	if err != nil {
		return "", err
	}
	a := newTTDAAdapter(c)
	done, err := a.run(at)
	if err != nil {
		return "", err
	}
	if done {
		return "", fmt.Errorf("seed %d finishes before cycle %d; nothing to pause", seed, at)
	}
	data := sim.Checkpoint(a)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	fresh := newTTDAAdapter(c)
	if err := sim.Restore(fresh, data); err != nil {
		return "", fmt.Errorf("written checkpoint does not restore: %v", err)
	}
	if done, err := fresh.run(runLimit); err != nil || !done {
		return "", fmt.Errorf("written checkpoint does not resume: done=%v err=%v", done, err)
	}
	snap, err := fresh.snapshot()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("checkpoint of seed %d at cycle %d written to %s (%d bytes); verified: resumes to result %d in %d cycles",
		seed, at, path, len(data), snap.Result, snap.Cycles), nil
}
