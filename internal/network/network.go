// Package network provides cycle-stepped packet-switched interconnection
// models: an ideal fixed-latency fabric, a crossbar (C.mmp), a 2-D mesh
// (Illiac IV / Connection Machine grid), a hypercube with table-based
// routing, link faults, and partitioning (the Section 3 emulation
// facility), and an omega network with request combining (NYU
// Ultracomputer).
//
// All models share the same contract: Send enqueues a packet at its source
// port (refusing when the injection queue is full — backpressure), Step
// advances one cycle, and delivery happens through a callback. Packets are
// one network word; a link moves one packet per cycle.
package network

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/token"
)

// Packet is one message in flight.
type Packet struct {
	Src, Dst int
	Payload  interface{}

	// Tok is the inline fast path for token payloads (valid when HasTok is
	// set). Tokens are by far the most common message; carrying them as a
	// struct field instead of boxing them into Payload keeps the send path
	// allocation-free when packets are recycled.
	Tok    token.Token
	HasTok bool

	// InjectedAt is stamped by Send for latency accounting.
	InjectedAt sim.Cycle
	// Hops counts link traversals.
	Hops int

	id    uint64
	path  []pathStep // reverse-path bookkeeping for the omega network
	moved sim.Cycle  // last cycle this packet hopped (prevents double hops)
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt(%d->%d, hops=%d)", p.Src, p.Dst, p.Hops)
}

// Reset clears a packet for reuse from a free list, keeping the allocated
// reverse-path capacity.
func (p *Packet) Reset() {
	*p = Packet{path: p.path[:0]}
}

type pathStep struct {
	stage, sw int
	inPort    int
}

// Delivery receives packets that reached their destination port.
type Delivery func(*Packet)

// Network is the common interface over all interconnect models.
type Network interface {
	// Ports returns the number of endpoints.
	Ports() int
	// Send enqueues the packet at port p.Src. It reports false when the
	// injection queue is full; the caller must retry later.
	Send(p *Packet) bool
	// SetDelivery registers the destination callback. It must be set
	// before the first Send.
	SetDelivery(d Delivery)
	// Step advances the network one cycle.
	Step(now sim.Cycle)
	// Pending reports how many packets are in flight (for termination
	// detection).
	Pending() int
	// Idle reports whether the fabric holds no packets at all: stepping an
	// idle network is a no-op.
	Idle() bool
	// NextEvent reports the earliest cycle at or after now at which the
	// network can deliver or move a packet: now when it must be stepped
	// every cycle (switched fabrics with traffic in flight), a future
	// cycle for fabrics that know their next delivery time, or sim.Never
	// when idle. The simulation kernel uses it to skip dead cycles.
	NextEvent(now sim.Cycle) sim.Cycle
	// Stats exposes traffic counters.
	Stats() *Stats
}

// clocked is the engine attachment embedded by every fabric: the Waker
// captured at registration plus the slot-accurate clock and re-arm rules.
// Unattached fabrics (driven by a hand-rolled loop or an exhaustive
// scheduler) behave exactly as before: clock falls back to the fabric's
// internally-stepped now and rearm is a no-op.
type clocked struct {
	waker sim.Waker
}

// Attach implements sim.Wakeable; the engine calls it at registration.
func (k *clocked) Attach(w sim.Waker) { k.waker = w }

// clock returns the cycle an exhaustive per-cycle engine would show on
// self's own clock at this instant. Fabrics stamp packet times (InjectedAt,
// moved) from Send/Reply — which run inside the *caller's* step — so the
// fabric's own clock may lag the engine's by one tick; SlotNow reproduces
// that lag exactly.
func (k *clocked) clock(self sim.Component, fallback sim.Cycle) sim.Cycle {
	if k.waker == nil {
		return fallback
	}
	return k.waker.SlotNow(self)
}

// rearm tells an attached engine when self next needs a step; fabrics call
// it after any mutation arriving from outside their own Step.
func (k *clocked) rearm(self interface {
	sim.Component
	NextEvent(sim.Cycle) sim.Cycle
}) {
	if k.waker == nil {
		return
	}
	if t := self.NextEvent(k.waker.Now()); t != sim.Never {
		k.waker.Wake(self, t)
	}
}

// steppedNextEvent is the NextEvent answer for switched fabrics that move
// packets one link per cycle: with traffic in flight they must be stepped
// every cycle, otherwise never.
func steppedNextEvent(pending int, now sim.Cycle) sim.Cycle {
	if pending > 0 {
		return now
	}
	return sim.Never
}

// Stats aggregates traffic measurements for a network.
type Stats struct {
	Injected  metrics.Counter
	Delivered metrics.Counter
	// Latency is the injection-to-delivery cycle count distribution.
	Latency *metrics.Histogram
	// Hops is the link-traversal distribution.
	Hops *metrics.Histogram
	// Refused counts Send calls rejected by backpressure.
	Refused metrics.Counter
}

// NewStats returns zeroed statistics with standard latency buckets.
func NewStats() *Stats {
	return &Stats{
		Latency: metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
		Hops:    metrics.NewHistogram(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
	}
}

func (s *Stats) delivered(p *Packet, now sim.Cycle) {
	s.Delivered.Inc()
	s.Latency.Observe(uint64(now - p.InjectedAt))
	s.Hops.Observe(uint64(p.Hops))
}

// MeanLatency returns the average delivery latency in cycles.
func (s *Stats) MeanLatency() float64 { return s.Latency.Mean() }

// queue is a bounded FIFO of packets.
type queue struct {
	buf []*Packet
	cap int
}

func newQueue(capacity int) *queue { return &queue{cap: capacity} }

func (q *queue) full() bool  { return len(q.buf) >= q.cap }
func (q *queue) empty() bool { return len(q.buf) == 0 }
func (q *queue) len() int    { return len(q.buf) }

func (q *queue) push(p *Packet) bool {
	if q.full() {
		return false
	}
	q.buf = append(q.buf, p)
	return true
}

func (q *queue) head() *Packet {
	if len(q.buf) == 0 {
		return nil
	}
	return q.buf[0]
}

func (q *queue) pop() *Packet {
	if len(q.buf) == 0 {
		return nil
	}
	p := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	return p
}
