package network

import (
	"fmt"

	"repro/internal/sim"
)

// Hypercube is the Section 3 emulation-facility network: a d-dimensional
// binary cube of packet switches, one per processing element, with
//
//   - e-cube (dimension-order) routing by default,
//   - optional table-based routing ("allows the experimenter to specify
//     any emulated topology which can be mapped onto the hypercube"),
//   - link-fault injection with re-routing over the cube's redundancy, and
//   - static partitioning into independent sub-machines.
//
// Each link carries one packet per cycle in each direction; each node has
// an injection queue and one input buffer per dimension.
type Hypercube struct {
	clocked
	dim     int
	n       int
	deliver Delivery

	// in[node][port]: port 0 = injection, 1+k = input from dimension-k link
	in [][]*queue
	rr []int
	// alive[node][k]: the dimension-k link at node is usable. Faults are
	// symmetric: killing (a,k) also kills (a^<<k, k).
	alive [][]bool
	// table[node] = nil for e-cube, else table[node][dst] = dimension to
	// take next (-1 unreachable).
	table [][]int8
	// partition[node] = partition id; Send refuses cross-partition packets.
	partition []int

	pending int
	now     sim.Cycle
	stats   *Stats
}

// NewHypercube returns a 2^dim-node cube with per-buffer capacity queueCap.
func NewHypercube(dim int, queueCap int) *Hypercube {
	n := 1 << dim
	h := &Hypercube{dim: dim, n: n, stats: NewStats()}
	h.in = make([][]*queue, n)
	h.rr = make([]int, n)
	h.alive = make([][]bool, n)
	h.partition = make([]int, n)
	for i := 0; i < n; i++ {
		qs := make([]*queue, dim+1)
		for j := range qs {
			qs[j] = newQueue(queueCap)
		}
		h.in[i] = qs
		h.alive[i] = make([]bool, dim)
		for k := range h.alive[i] {
			h.alive[i][k] = true
		}
	}
	return h
}

// Ports returns 2^dim.
func (h *Hypercube) Ports() int { return h.n }

// Dim returns the cube dimension.
func (h *Hypercube) Dim() int { return h.dim }

// SetDelivery registers the destination callback.
func (h *Hypercube) SetDelivery(d Delivery) { h.deliver = d }

// KillLink disables the dimension-k link at node (both directions). Routing
// tables must be recomputed afterwards for traffic to avoid it.
func (h *Hypercube) KillLink(node, k int) {
	h.alive[node][k] = false
	h.alive[node^(1<<k)][k] = false
}

// LinkAlive reports whether node's dimension-k link is usable.
func (h *Hypercube) LinkAlive(node, k int) bool { return h.alive[node][k] }

// Partition assigns nodes to partitions; traffic cannot cross partitions,
// statically splitting the facility into independent machines. Passing nil
// restores the single-partition configuration.
func (h *Hypercube) Partition(assign []int) {
	if assign == nil {
		for i := range h.partition {
			h.partition[i] = 0
		}
		return
	}
	if len(assign) != h.n {
		panic(fmt.Sprintf("network: partition of %d nodes for %d-node cube", len(assign), h.n))
	}
	copy(h.partition, assign)
}

// RecomputeTables installs table-based routing: a breadth-first search per
// destination over live, same-partition links. Nodes with no live path to
// a destination route -1 (Send still accepts; the packet is dropped with a
// fault count if it strands — see Unroutable).
func (h *Hypercube) RecomputeTables() {
	h.table = make([][]int8, h.n)
	for node := 0; node < h.n; node++ {
		h.table[node] = make([]int8, h.n)
		for d := range h.table[node] {
			h.table[node][d] = -1
		}
	}
	// BFS from each destination backwards: dist[x] = hops from x to dst.
	dist := make([]int, h.n)
	bfsQ := make([]int, 0, h.n)
	for dst := 0; dst < h.n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		bfsQ = bfsQ[:0]
		bfsQ = append(bfsQ, dst)
		for len(bfsQ) > 0 {
			cur := bfsQ[0]
			bfsQ = bfsQ[1:]
			for k := 0; k < h.dim; k++ {
				if !h.alive[cur][k] {
					continue
				}
				nb := cur ^ (1 << k)
				if h.partition[nb] != h.partition[dst] {
					continue
				}
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					// first (lowest-dimension) discovery wins: from nb,
					// dimension k leads one step closer to dst.
					h.table[nb][dst] = int8(k)
					bfsQ = append(bfsQ, nb)
				}
			}
		}
	}
}

// UseECube removes routing tables, restoring dimension-order routing.
func (h *Hypercube) UseECube() { h.table = nil }

// nextDim returns the outgoing dimension for a packet at cur headed to
// dst, or -1 when unroutable.
func (h *Hypercube) nextDim(cur, dst int) int {
	if h.table != nil {
		return int(h.table[cur][dst])
	}
	diff := cur ^ dst
	for k := 0; k < h.dim; k++ {
		if diff&(1<<k) != 0 {
			if !h.alive[cur][k] {
				continue // e-cube skips dead links by trying higher dims
			}
			return k
		}
	}
	return -1
}

// Send enqueues at the source's injection buffer. Cross-partition packets
// are refused outright.
func (h *Hypercube) Send(p *Packet) bool {
	if p.Src < 0 || p.Src >= h.n || p.Dst < 0 || p.Dst >= h.n {
		panic(fmt.Sprintf("network: hypercube packet with bad endpoints %s", p))
	}
	if h.partition[p.Src] != h.partition[p.Dst] {
		h.stats.Refused.Inc()
		return false
	}
	h.now = h.clock(h, h.now)
	if !h.in[p.Src][0].push(p) {
		h.stats.Refused.Inc()
		return false
	}
	p.InjectedAt = h.now
	p.moved = ^sim.Cycle(0)
	h.pending++
	h.stats.Injected.Inc()
	h.rearm(h)
	return true
}

// Step advances one cycle: each node ejects local packets and forwards at
// most one packet per live outgoing link.
func (h *Hypercube) Step(now sim.Cycle) {
	h.now = now
	for node := 0; node < h.n; node++ {
		var usedDim [32]bool
		inputs := h.in[node]
		start := h.rr[node]
		nports := h.dim + 1
		for k := 0; k < nports; k++ {
			port := (start + k) % nports
			q := inputs[port]
			pkt := q.head()
			if pkt == nil || pkt.moved == now {
				continue
			}
			if pkt.Dst == node {
				q.pop()
				h.pending--
				h.stats.delivered(pkt, now)
				h.deliver(pkt)
				continue
			}
			d := h.nextDim(node, pkt.Dst)
			if d < 0 || usedDim[d] || !h.alive[node][d] {
				continue
			}
			nb := node ^ (1 << d)
			if h.in[nb][1+d].full() {
				continue
			}
			q.pop()
			pkt.Hops++
			pkt.moved = now
			h.in[nb][1+d].push(pkt)
			usedDim[d] = true
		}
		h.rr[node] = (start + 1) % nports
	}
}

// Pending reports packets queued or in transit.
func (h *Hypercube) Pending() int { return h.pending }

// Idle reports whether no packets are queued or in flight.
func (h *Hypercube) Idle() bool { return h.pending == 0 }

// NextEvent: a switched cube with traffic must route every cycle.
func (h *Hypercube) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(h.pending, now) }

// Stats returns traffic counters.
func (h *Hypercube) Stats() *Stats { return h.stats }

// HammingDistance returns the minimum hop count between two nodes on an
// intact cube.
func HammingDistance(a, b int) int {
	d := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		d++
	}
	return d
}

var _ Network = (*Hypercube)(nil)
