package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// ckptConfigs are the machine shapes the round-trip tests cross.
func ckptConfigs() map[string]Config {
	return map[string]Config{
		"pe4": {PEs: 4},
	}
}

// runToEnd runs a fresh machine to completion and returns it with its
// results. The matmul workload exercises calls, I-structures, and loops,
// so every serialized subsystem is mid-flight at the pause points.
func runToEnd(t *testing.T, cfg Config, srcArgs []token.Value) (*Machine, []token.Value) {
	t.Helper()
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := NewMachine(cfg, prog)
	got, err := m.Run(5_000_000, srcArgs...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, got
}

// TestCheckpointResumeBitIdentical pauses a run at several mid-run cycles,
// serializes, restores into a fresh machine, finishes, and requires the
// split run to match the uninterrupted one exactly — results, cycle count,
// and the full end-of-run checkpoint byte stream.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range ckptConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			ref, wantRes := runToEnd(t, cfg, args)
			total := sim.Cycle(ref.Stats().Cycles)
			if total < 10 {
				t.Fatalf("run too short to split: %d cycles", total)
			}
			refBytes := sim.Checkpoint(ref)

			for _, frac := range []sim.Cycle{1, total / 3, total / 2, total - 1} {
				paused := NewMachine(cfg, prog)
				_, err := paused.Run(frac, args...)
				if err == nil {
					t.Fatalf("pause at %d: run finished early", frac)
				}
				if !strings.Contains(err.Error(), "did not finish") {
					t.Fatalf("pause at %d: %v", frac, err)
				}
				data := sim.Checkpoint(paused)

				// Canonical encoding: restore → re-save is byte-identical.
				again := NewMachine(cfg, prog)
				if err := sim.Restore(again, data); err != nil {
					t.Fatalf("restore at %d: %v", frac, err)
				}
				if re := sim.Checkpoint(again); !bytes.Equal(re, data) {
					t.Fatalf("pause at %d: restore→save changed the stream (%d vs %d bytes)", frac, len(re), len(data))
				}

				// The restored machine finishes identically.
				gotRes, err := again.Run(5_000_000)
				if err != nil {
					t.Fatalf("resume at %d: %v", frac, err)
				}
				if len(gotRes) != len(wantRes) {
					t.Fatalf("resume at %d: %d results, want %d", frac, len(gotRes), len(wantRes))
				}
				for i := range gotRes {
					if !gotRes[i].Equal(wantRes[i]) {
						t.Fatalf("resume at %d: result %d = %s, want %s", frac, i, gotRes[i], wantRes[i])
					}
				}
				if got := again.Stats().Cycles; got != ref.Stats().Cycles {
					t.Fatalf("resume at %d: %d cycles, want %d", frac, got, ref.Stats().Cycles)
				}
				if end := sim.Checkpoint(again); !bytes.Equal(end, refBytes) {
					t.Fatalf("resume at %d: end-of-run checkpoint differs from uninterrupted run", frac)
				}
			}
		})
	}
}

// TestCheckpointPauseResumeInPlace checks the no-serialize path: a machine
// paused by its cycle limit continues bit-identically when Run is called
// again on the same instance.
func TestCheckpointPauseResumeInPlace(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range ckptConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			ref, wantRes := runToEnd(t, cfg, args)
			refBytes := sim.Checkpoint(ref)
			total := sim.Cycle(ref.Stats().Cycles)

			m := NewMachine(cfg, prog)
			if _, err := m.Run(total/2, args...); err == nil {
				t.Fatal("run finished before the split point")
			}
			gotRes, err := m.Run(5_000_000)
			if err != nil {
				t.Fatalf("continue: %v", err)
			}
			for i := range gotRes {
				if !gotRes[i].Equal(wantRes[i]) {
					t.Fatalf("result %d = %s, want %s", i, gotRes[i], wantRes[i])
				}
			}
			if got := m.Stats().Cycles; got != ref.Stats().Cycles {
				t.Fatalf("split run took %d cycles, want %d", got, ref.Stats().Cycles)
			}
			if end := sim.Checkpoint(m); !bytes.Equal(end, refBytes) {
				t.Fatal("split run end checkpoint differs from uninterrupted run")
			}
		})
	}
}

// TestCheckpointRejectsWrongShape ensures a checkpoint refuses to load
// into a machine of a different configuration instead of misdecoding.
func TestCheckpointRejectsWrongShape(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	if _, err := m.Run(50, args...); err == nil {
		t.Fatal("run finished early")
	}
	data := sim.Checkpoint(m)

	if err := sim.Restore(NewMachine(Config{PEs: 8}, prog), data); err == nil {
		t.Error("more-pes: restore accepted a mismatched checkpoint")
	}
}

// TestCheckpointRejectsOldLayouts: each file in the table was taken from
// matmul(3) on 4 PEs paused at cycle 50, under an earlier layout:
//   - interpreted_pe4_v1.ckpt: a plain machine under version 1 of the
//     "ttda" section, which carried an execution-mode byte.
//   - sharded_pe4.ckpt: the machine split across two shards of the
//     since-removed parallel kernel, also "ttda" version 1.
//   - engine_v1_pe4.ckpt: a plain machine under version 1 of the "engine"
//     section, which carried a byte for the since-removed implicit
//     exhaustive mode.
//
// Restoring each must fail on the named section header instead of
// misdecoding the state that follows.
func TestCheckpointRejectsOldLayouts(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, tc := range []struct{ file, section string }{
		{"interpreted_pe4_v1.ckpt", "ttda"},
		{"sharded_pe4.ckpt", "ttda"},
		{"engine_v1_pe4.ckpt", "engine"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			err = sim.Restore(NewMachine(Config{PEs: 4}, prog), data)
			if want := `section "` + tc.section + `"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("restore of %s: got %v, want a section error naming %s", tc.file, err, tc.section)
			}
		})
	}
}
