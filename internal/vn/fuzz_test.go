package vn

import (
	"testing"

	"repro/internal/sim"
)

// FuzzAssemble feeds arbitrary text to the assembler, which must never
// panic, and runs every program it accepts for a bounded number of cycles
// on a Core over LatencyMemory — the path critique-serve takes with a
// user's vnasm — which must not panic either.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{
		"li r1, 5\nld r2, r1, 3\nst r2, r1, 0\nfaa r3, r1, r2\nhalt",
		"loop: addi r4, r4, -1\n  bne r4, r0, loop\n  halt",
		"jal r1, f\nhalt\nf: tas r2, r0\n  jr r1",
		"li r1, -1\nld r2, r1, 0\nhalt",
		"cns r1, r0\nprd r1, r0\ndiv r1, r1, r0",
		"a: b: j a ; spin",
		"li r1, 9223372036854775807\naddi r1, r1, 1\nst r1, r1, 0",
		"",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		mem := NewLatencyMemory(3)
		cpu := NewCore(prog, mem, 2)
		eng := sim.NewEngine()
		eng.Register(mem)
		eng.Register(cpu)
		eng.Run(func() bool { return cpu.Halted() && mem.Pending() == 0 }, 2_000)
	})
}
