package sim

import (
	"bytes"
	"testing"
)

// chainComp steps at each cycle of a fixed schedule, then goes idle — its
// wake entry must round-trip through the Never sentinel.
type chainComp struct {
	at   []Cycle
	next int
	hits uint64
}

func (c *chainComp) Step(now Cycle) {
	for c.next < len(c.at) && c.at[c.next] <= now {
		c.next++
		c.hits++
	}
}

func (c *chainComp) NextEvent(now Cycle) Cycle {
	if c.next >= len(c.at) {
		return Never
	}
	if c.at[c.next] < now {
		return now
	}
	return c.at[c.next]
}

func (c *chainComp) idle() bool  { return c.next >= len(c.at) }
func (c *chainComp) save(e *Enc) { e.Int(c.next); e.U64(c.hits) }
func (c *chainComp) load(d *Dec) { c.next = d.Int(); c.hits = d.U64() }

// greedyComp re-arms at the current cycle on every tick until exhausted —
// after its final tick it sits armed one cycle below the engine clock, the
// exact case LoadState must accept (bound prevTick) without clamping.
type greedyComp struct {
	left int
	hits uint64
}

func (g *greedyComp) Step(Cycle) {
	if g.left > 0 {
		g.left--
		g.hits++
	}
}

func (g *greedyComp) NextEvent(now Cycle) Cycle {
	if g.left == 0 {
		return Never
	}
	return now
}

func (g *greedyComp) idle() bool  { return g.left == 0 }
func (g *greedyComp) save(e *Enc) { e.Int(g.left); e.U64(g.hits) }
func (g *greedyComp) load(d *Dec) { g.left = d.Int(); g.hits = d.U64() }

// statefulComp is what the test rig serializes alongside the engine.
type statefulComp interface {
	Component
	idle() bool
	save(*Enc)
	load(*Dec)
}

// stateRig bundles an engine with its components as one Stateful machine.
type stateRig struct {
	eng   *Engine
	comps []statefulComp
}

func (r *stateRig) SaveState(e *Enc) {
	r.eng.SaveState(e)
	for _, c := range r.comps {
		c.save(e)
	}
}

func (r *stateRig) LoadState(d *Dec) error {
	if err := r.eng.LoadState(d); err != nil {
		return err
	}
	for _, c := range r.comps {
		c.load(d)
	}
	return d.Err()
}

func (r *stateRig) done() bool {
	for _, c := range r.comps {
		if !c.idle() {
			return false
		}
	}
	return true
}

func (r *stateRig) run(t *testing.T, limit Cycle) bool {
	t.Helper()
	_, ok := r.eng.Run(r.done, limit)
	return ok
}

// newChainRig builds the mixed rig every test uses: a short chain that
// goes idle early (Never sentinel), a long sparse chain (pending heap
// entries), and a greedy component (same-tick wakes).
func newChainRig() *stateRig {
	r := &stateRig{}
	r.comps = []statefulComp{
		&chainComp{at: []Cycle{2, 3}},
		&chainComp{at: []Cycle{1, 10, 20, 40}},
		&greedyComp{left: 12},
	}
	r.eng = NewEngine()
	for _, c := range r.comps {
		r.eng.Register(c)
	}
	return r
}

// armedSet reads the engine's wake queue as (armed, at) pairs in component
// index order — the canonical form saveWakeQueue writes.
func armedSet(r *stateRig) (armed []bool, at []Cycle) {
	wake, pos := r.eng.wake, r.eng.pos
	for i := range wake {
		armed = append(armed, pos[i] >= 0)
		if pos[i] >= 0 {
			at = append(at, wake[i])
		} else {
			at = append(at, Never)
		}
	}
	return armed, at
}

// minArmed is the engine's next wake — what NextEvent-driven idle jumps
// consult — derived from the canonical armed set.
func minArmed(r *stateRig) Cycle {
	_, at := armedSet(r)
	min := Never
	for _, a := range at {
		if a < min {
			min = a
		}
	}
	return min
}

// roundTrip pauses a fresh rig at pause cycles, checkpoints it, restores
// into another fresh rig, and demands: canonical re-encoding, identical
// armed set and next wake, and a resumed run whose end state is
// byte-identical to the uninterrupted run's.
func roundTrip(t *testing.T, pause Cycle) {
	t.Helper()
	const limit = 1000

	ref := newChainRig()
	if !ref.run(t, limit) {
		t.Fatal("reference run did not finish")
	}
	refBytes := Checkpoint(ref)

	m := newChainRig()
	if m.run(t, pause) {
		t.Fatalf("run finished within %d cycles", pause)
	}
	data := Checkpoint(m)

	fresh := newChainRig()
	if err := Restore(fresh, data); err != nil {
		t.Fatalf("restore at cycle %d: %v", pause, err)
	}
	if re := Checkpoint(fresh); !bytes.Equal(re, data) {
		t.Fatalf("restore→save at cycle %d is not byte-identical", pause)
	}

	wantArmed, wantAt := armedSet(m)
	gotArmed, gotAt := armedSet(fresh)
	for i := range wantArmed {
		if wantArmed[i] != gotArmed[i] || wantAt[i] != gotAt[i] {
			t.Fatalf("component %d wake state diverged: armed %v@%d, restored %v@%d",
				i, wantArmed[i], wantAt[i], gotArmed[i], gotAt[i])
		}
	}
	if a, b := minArmed(m), minArmed(fresh); a != b {
		t.Fatalf("next wake diverged: %d vs %d", a, b)
	}

	// Both the in-place continuation and the restored copy must land on
	// the uninterrupted run's exact end state.
	if !m.run(t, limit) || !fresh.run(t, limit) {
		t.Fatal("resumed runs did not finish")
	}
	if !bytes.Equal(Checkpoint(m), refBytes) {
		t.Fatalf("in-place continuation from cycle %d diverged from the straight run", pause)
	}
	if !bytes.Equal(Checkpoint(fresh), refBytes) {
		t.Fatalf("restored run from cycle %d diverged from the straight run", pause)
	}
}

// TestWakeQueueNeverSentinelRoundTrip pauses after the short chain went
// idle: its queue slot must survive Save→Load as unarmed.
func TestWakeQueueNeverSentinelRoundTrip(t *testing.T) {
	for _, pause := range []Cycle{5, 8} {
		roundTrip(t, pause)
	}
}

// TestWakeQueueSameTickArmRoundTrip pauses while the greedy component is
// still re-arming at the current cycle, so the checkpoint carries a wake
// one tick below the clock — LoadState must admit it unclamped.
func TestWakeQueueSameTickArmRoundTrip(t *testing.T) {
	for _, pause := range []Cycle{1, 3, 11} {
		roundTrip(t, pause)
	}
}

// TestWakeQueuePendingHeapRoundTrip pauses with multiple future wakes in
// the heap (the sparse chain's 20- and 40-cycle events still pending).
func TestWakeQueuePendingHeapRoundTrip(t *testing.T) {
	for _, pause := range []Cycle{13, 19, 25, 39} {
		roundTrip(t, pause)
	}
}

// TestWakeQueueRejectsPreTickArm pins the LoadState bound: an arm before
// prevTick is corrupt, not clampable.
func TestWakeQueueRejectsPreTickArm(t *testing.T) {
	m := newChainRig()
	if m.run(t, 15) {
		t.Fatal("run finished unexpectedly")
	}
	data := Checkpoint(m)

	// The stream layout is magic, "engine" tag, core cycles
	// (now first, prevTick second), ... wake entries. Rather than patch
	// bytes at a fragile offset, rebuild a stream with an impossible arm by
	// saving a doctored rig.
	bad := newChainRig()
	if err := Restore(bad, data); err != nil {
		t.Fatal(err)
	}
	eng := bad.eng
	for i := range eng.pos {
		if eng.pos[i] >= 0 {
			eng.wake[i] = 0 // before any executed tick
		}
	}
	corrupted := Checkpoint(bad)
	if err := Restore(newChainRig(), corrupted); err == nil {
		t.Fatal("restore accepted a wake armed before the last executed tick")
	}
}
