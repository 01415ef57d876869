package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// dishonestResumable diverges after a checkpoint round trip: the restored
// copy runs one cycle longer than the straight run — the exact class of
// bug the checkpoint oracle exists to catch.
type dishonestResumable struct {
	cycles   uint64
	restored bool
}

func (d *dishonestResumable) SaveState(e *sim.Enc) {
	e.Tag("dishonest", 1)
	e.U64(d.cycles)
}

func (d *dishonestResumable) LoadState(dec *sim.Dec) error {
	if err := dec.Tag("dishonest", 1); err != nil {
		return err
	}
	d.cycles = dec.U64()
	d.restored = true
	return nil
}

func (d *dishonestResumable) run(limit sim.Cycle) (bool, error) {
	target := uint64(100)
	if d.restored {
		target = 101 // resumed runs drift by one cycle
	}
	if d.cycles+uint64(limit) < target {
		d.cycles += uint64(limit)
		return false, nil
	}
	d.cycles = target
	return true, nil
}

func (d *dishonestResumable) snapshot() (Snapshot, error) {
	return Snapshot{Cycles: d.cycles}, nil
}

// TestHarnessDetectsCheckpointDivergence seeds the split-run check with a
// machine whose restored copy drifts, and demands a checkpoint-equivalence
// violation carrying the time-travel repro.
func TestHarnessDetectsCheckpointDivergence(t *testing.T) {
	ct := newCounter(99)
	splitCheck(ct, sim.NewRNG(1), "double", func() resumable { return &dishonestResumable{} })
	if len(ct.vs) == 0 {
		t.Fatal("harness accepted a machine that diverges after checkpoint/restore")
	}
	v := ct.vs[0]
	if v.Oracle != OracleCheckpoint {
		t.Fatalf("violation filed under %q, want %q", v.Oracle, OracleCheckpoint)
	}
	if v.Cycles == 0 {
		t.Fatal("violation lost the reference run length")
	}
	if !strings.Contains(v.String(), "-conformance.ckpt-at=") {
		t.Fatalf("violation text omits the time-travel command:\n%s", v)
	}

	// An honest machine must pass the same check.
	honest := newCounter(99)
	splitCheck(honest, sim.NewRNG(1), "honest", func() resumable {
		return &dishonestResumable{restored: true} // both runs take 101 cycles
	})
	if len(honest.vs) != 0 {
		t.Fatalf("split check rejected an honest machine: %v", honest.vs)
	}
}

// TestViolationTimeTravel pins the repro command shape and its absence
// when the run length is unknown.
func TestViolationTimeTravel(t *testing.T) {
	v := Violation{Seed: 7, Oracle: OracleCheckpoint, Machine: "ttda", Cycles: 1000}
	tt := v.TimeTravel()
	for _, want := range []string{"-conformance.seed=7", "-conformance.ckpt-at=936", "-conformance.ckpt-out="} {
		if !strings.Contains(tt, want) {
			t.Fatalf("time-travel command %q lacks %q", tt, want)
		}
	}
	if (Violation{Seed: 7, Cycles: 0}).TimeTravel() != "" {
		t.Fatal("time travel offered without a known run length")
	}
	short := Violation{Seed: 7, Cycles: 10}
	if !strings.Contains(short.TimeTravel(), "-conformance.ckpt-at=1") {
		t.Fatalf("short-run time travel should clamp to cycle 1: %q", short.TimeTravel())
	}
}

// TestMaterializeCheckpoint exercises the time-travel entry point end to
// end: the written artifact must restore into a fresh machine and resume
// to the workload's expected answer.
func TestMaterializeCheckpoint(t *testing.T) {
	const seed = 3
	path := filepath.Join(t.TempDir(), "seed3.ckpt")
	msg, err := MaterializeCheckpoint(seed, 5, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "verified") {
		t.Fatalf("summary does not report verification: %q", msg)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile(Generate(seed))
	if err != nil {
		t.Fatal(err)
	}
	a := newTTDAAdapter(c)
	if err := sim.Restore(a, data); err != nil {
		t.Fatalf("artifact does not restore: %v", err)
	}
	done, err := a.run(runLimit)
	if err != nil || !done {
		t.Fatalf("artifact does not resume: done=%v err=%v", done, err)
	}
	snap, err := a.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := c.w.Expected(); snap.Result != want {
		t.Fatalf("resumed run computed %d, want %d", snap.Result, want)
	}

	// Asking for a pause beyond the run's end must error, not write junk.
	if _, err := MaterializeCheckpoint(seed, runLimit-1, filepath.Join(t.TempDir(), "x.ckpt")); err == nil {
		t.Fatal("materializing past the end of the run did not error")
	}
}

// TestCheckpointOracleSingleSeed runs the full checkpoint family on one seed
// as a fast standalone gate (the 64-seed sweep covers the rest).
func TestCheckpointOracleSingleSeed(t *testing.T) {
	c, err := compile(Generate(0))
	if err != nil {
		t.Fatal(err)
	}
	ct := newCounter(0)
	checkCheckpoint(ct, c)
	if ct.per[OracleCheckpoint] == 0 {
		t.Fatal("checkpoint oracle ran zero checks")
	}
	for _, v := range ct.vs {
		t.Errorf("%s", v)
	}
}
