// Producer/consumer under three synchronization disciplines — the paper's
// Issue 2. One loop fills an array while another sums it; the only
// difference between the three programs is how the consumer waits:
//
//   - whole-array barrier: the consumer starts after the producer finishes;
//
//   - per-element (I-structures): reads that arrive early are deferred at
//     the storage and satisfied by the matching writes — full overlap with
//     no software synchronization at all;
//
//   - HEP-style busy-waiting: shown at the controller level, where polling
//     wastes operations that deferred lists never issue.
//
//     go run ./examples/producerconsumer
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/istructure"
	"repro/internal/sim"
	"repro/internal/token"
)

const n = 128

const barrierSrc = `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i * 2 + 1;
           new z <- z
         return 0);
    b = if p == 0 then a else a;   # control transfer: wait for ALL writes
    (initial s <- 0
     for i from 0 to n - 1 do
       new s <- s + b[i]
     return s) };
`

const elementSrc = `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i * 2 + 1;
           new z <- z
         return 0);
    s = (initial s <- 0               # starts immediately: presence bits
         for i from 0 to n - 1 do     # synchronize each element
           new s <- s + a[i]
         return s);
    s + p * 0 };
`

func run(name, src string) uint64 {
	prog, err := id.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	m := core.NewMachine(core.Config{PEs: 8}, prog)
	res, err := m.Run(50_000_000, token.Int(n))
	if err != nil {
		log.Fatal(err)
	}
	if res[0].I != n*n {
		log.Fatalf("%s computed %s, want %d", name, res[0], n*n)
	}
	s := m.Summarize()
	fmt.Printf("%-22s %6d cycles   %3d reads deferred at the storage\n", name, s.Cycles, s.DeferredReads)
	return s.Cycles
}

func main() {
	fmt.Printf("filling and summing a %d-element I-structure on an 8-PE TTDA\n\n", n)
	b := run("whole-array barrier", barrierSrc)
	e := run("per-element sync", elementSrc)
	fmt.Printf("\nper-element synchronization is %.2fx faster: production and\n", float64(b)/float64(e))
	fmt.Println("consumption overlap with zero software synchronization (Issue 2).")

	// The controller-level contrast with busy-waiting (paper footnote 2).
	fmt.Println("\nstorage-controller view (producer writes one element every 8 cycles):")
	im := istructure.New(istructure.Config{Size: n, Respond: func(istructure.Response) {}})
	var hm *istructure.HEPModule
	hm = istructure.NewHEP(0, n, 1, func(r istructure.HEPResponse) {
		if !r.OK {
			hm.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: r.Addr, ReplyTo: r.ReplyTo})
		}
	})
	for i := uint32(0); i < n; i++ {
		im.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: i, ReplyTo: int(i)})
		hm.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: i, ReplyTo: int(i)})
	}
	eng := sim.NewEngine()
	// The producer wakes both modules on each write: storage modules do
	// not wake themselves.
	eng.Register(&producer{enqueue: func(w istructure.Request) {
		im.Enqueue(w)
		hm.Enqueue(w)
		eng.Wake(im, eng.Now())
		eng.Wake(hm, eng.Now())
	}})
	eng.Register(im)
	eng.Register(hm)
	eng.Run(func() bool { return false }, n*8+n*10)
	iOps := im.Stats().Reads.Value() + im.Stats().Writes.Value()
	hOps := hm.Stats().Reads.Value() + hm.Stats().Writes.Value()
	fmt.Printf("  I-structure deferred lists: %4d controller operations\n", iOps)
	fmt.Printf("  HEP-style busy-waiting:     %4d controller operations (%d wasted retries)\n",
		hOps, hm.Stats().Retries.Value())
}

// producer writes element i at cycle 8i, n elements in all.
type producer struct {
	next    uint32
	enqueue func(istructure.Request)
}

func (p *producer) Step(now sim.Cycle) {
	if p.next < n && now >= sim.Cycle(8*p.next) {
		p.enqueue(istructure.Request{Op: istructure.OpWrite, Addr: p.next, Value: 1})
		p.next++
	}
}

func (p *producer) NextEvent(sim.Cycle) sim.Cycle {
	if p.next >= n {
		return sim.Never
	}
	return sim.Cycle(8 * p.next)
}
