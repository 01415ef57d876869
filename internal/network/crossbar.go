package network

import (
	"math/bits"

	"repro/internal/sim"
)

// Crossbar models the C.mmp-style n×n crossbar switch: every input has an
// injection queue, every output accepts one packet per cycle, and transit
// takes SwitchDelay cycles once an input wins arbitration. Contention
// appears only when two inputs address the same output in the same cycle.
//
// The paper's point about C.mmp is economic rather than architectural: a
// crossbar's cost grows at least quadratically. Cost reports the standard
// crosspoint count so experiments can plot it.
//
// Arbitration is cached rather than rescanned, and visits only outputs
// that have a requester. reqs[out] is a bitmask over inputs whose
// head-of-line packet addresses out, and active is a bitmask over outputs
// whose reqs mask is non-zero; both are maintained on every queue
// push/pop. Each cycle Step walks the set bits of active in ascending
// output order, and each grant is a find-first-set over a couple of words
// of reqs[out]. The grants, and their order, are
// those of a round-robin walk over every output and every input queue, at
// O(active outputs·words) per cycle instead of O(ports·words) for a walk
// over every output's mask or O(ports²) for a walk over every queue.
type Crossbar struct {
	clocked
	ports       int
	switchDelay sim.Cycle
	deliver     Delivery

	in      []*queue
	rr      []int      // per-output round-robin arbitration pointer
	reqs    [][]uint64 // reqs[out]: bitmask of inputs whose head wants out
	active  []uint64   // bitmask of outputs whose reqs[out] is non-zero
	headDst []int      // cached head-of-line destination per input, -1 if empty

	// inflight holds granted packets until transit completes. switchDelay
	// is constant, so due cycles are nondecreasing and a FIFO keeps them
	// sorted for free.
	inflight sim.FIFO[flight]
	pending  int
	now      sim.Cycle
	stats    *Stats
}

type flight struct {
	at sim.Cycle
	p  *Packet
}

// NewCrossbar returns an n-port crossbar. switchDelay is the input-to-
// output transit time in cycles (minimum 1); queueCap bounds each input's
// injection queue.
func NewCrossbar(ports int, switchDelay sim.Cycle, queueCap int) *Crossbar {
	if switchDelay < 1 {
		switchDelay = 1
	}
	words := (ports + 63) / 64
	c := &Crossbar{
		ports:       ports,
		switchDelay: switchDelay,
		in:          make([]*queue, ports),
		rr:          make([]int, ports),
		reqs:        make([][]uint64, ports),
		active:      make([]uint64, words),
		headDst:     make([]int, ports),
		stats:       NewStats(),
	}
	for i := range c.in {
		c.in[i] = newQueue(queueCap)
		c.reqs[i] = make([]uint64, words)
		c.headDst[i] = -1
	}
	return c
}

// Cost returns the crosspoint count of an n-port crossbar, the quadratic
// cost growth the paper calls out for C.mmp.
func CrossbarCost(ports int) int { return ports * ports }

// Ports returns the endpoint count.
func (c *Crossbar) Ports() int { return c.ports }

// SetDelivery registers the destination callback.
func (c *Crossbar) SetDelivery(d Delivery) { c.deliver = d }

// syncHead refreshes input i's cached head destination, the per-output
// requester bitmasks and the active-output mask after a push or pop
// changed the head of its queue.
func (c *Crossbar) syncHead(i int) {
	d := -1
	if h := c.in[i].head(); h != nil {
		d = h.Dst
	}
	if d == c.headDst[i] {
		return
	}
	if o := c.headDst[i]; o >= 0 {
		r := c.reqs[o]
		r[i>>6] &^= 1 << (uint(i) & 63)
		if r[i>>6] == 0 && isZero(r) {
			c.active[o>>6] &^= 1 << (uint(o) & 63)
		}
	}
	if d >= 0 {
		c.reqs[d][i>>6] |= 1 << (uint(i) & 63)
		c.active[d>>6] |= 1 << (uint(d) & 63)
	}
	c.headDst[i] = d
}

// isZero reports whether no bit of mask is set.
func isZero(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// firstSetFrom returns the lowest set bit at or cyclically after start, or
// -1 when the mask is empty. Bits at or above ports are never set.
func firstSetFrom(mask []uint64, start int) int {
	w := start >> 6
	m := ^uint64(0) << (uint(start) & 63)
	for i := w; i < len(mask); i++ {
		if v := mask[i] & m; v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
		m = ^uint64(0)
	}
	for i := 0; i <= w && i < len(mask); i++ {
		v := mask[i]
		if i == w {
			v &^= ^uint64(0) << (uint(start) & 63)
		}
		if v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Send enqueues at the source's input queue.
func (c *Crossbar) Send(p *Packet) bool {
	c.now = c.clock(c, c.now)
	if !c.in[p.Src].push(p) {
		c.stats.Refused.Inc()
		return false
	}
	c.syncHead(p.Src)
	p.InjectedAt = c.now
	c.pending++
	c.stats.Injected.Inc()
	c.rearm(c)
	return true
}

// Step delivers packets whose transit completes this cycle and arbitrates
// each requested output among its requesting inputs (round-robin).
func (c *Crossbar) Step(now sim.Cycle) {
	c.now = now
	for c.inflight.Len() > 0 && c.inflight.Peek().at <= now {
		p := c.inflight.Pop().p
		c.pending--
		c.stats.delivered(p, now)
		c.deliver(p)
	}

	// For each output with a requester, in ascending order, grant the
	// first requesting input at or cyclically after the round-robin
	// pointer. The word of active is re-read after every grant: a granted
	// input whose new head wants a later output is served there this same
	// cycle, as a walk over every output would serve it.
	for w := range c.active {
		for v := c.active[w]; v != 0; {
			bit := bits.TrailingZeros64(v)
			out := w<<6 + bit
			granted := firstSetFrom(c.reqs[out], c.rr[out])
			p := c.in[granted].pop()
			c.syncHead(granted)
			p.Hops = 1
			c.inflight.Push(flight{at: now + c.switchDelay, p: p})
			c.rr[out] = (granted + 1) % c.ports
			v = c.active[w] & (^uint64(0) << bit << 1)
		}
	}
}

// Pending reports packets queued or in transit.
func (c *Crossbar) Pending() int { return c.pending }

// Idle reports whether no packets are queued or in flight.
func (c *Crossbar) Idle() bool { return c.pending == 0 }

// NextEvent: a crossbar with traffic must arbitrate every cycle.
func (c *Crossbar) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(c.pending, now) }

// Stats returns traffic counters.
func (c *Crossbar) Stats() *Stats { return c.stats }

var _ Network = (*Crossbar)(nil)
