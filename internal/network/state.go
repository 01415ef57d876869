package network

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/token"
)

// Checkpoint serialization for the interconnect models. Topology, queue
// capacities, and routing configuration are construction-time parameters
// and are not serialized: state restores into a freshly built fabric of
// identical shape. Packet free lists are rebuilt empty, never restored.
//
// Packets may carry machine-specific payloads (and, in a combining omega
// network, machine-specific Splitter records); those serialize through a
// PayloadCodec the owning machine supplies at save/load time.

// PayloadCodec serializes the machine-specific values a fabric carries:
// packet payloads and omega Splitter records. Save must accept every
// payload and splitter type the machine injects; Load must reproduce the
// same concrete types (splitters must load as values implementing
// Splitter).
type PayloadCodec interface {
	Save(e *sim.Enc, v interface{})
	Load(d *sim.Dec) interface{}
}

// Checkpointable is the fabric-side checkpoint contract: every fabric in
// this package implements it. Machines that hold their interconnect behind
// the Network interface assert to this to save and restore it.
type Checkpointable interface {
	SaveTo(e *sim.Enc, pc PayloadCodec)
	LoadFrom(d *sim.Dec, pc PayloadCodec) error
}

var (
	_ Checkpointable = (*Ideal)(nil)
	_ Checkpointable = (*Crossbar)(nil)
	_ Checkpointable = (*Mesh)(nil)
	_ Checkpointable = (*Hypercube)(nil)
	_ Checkpointable = (*Omega)(nil)
)

// SavePacket appends one packet. pc may be nil only for fabrics whose
// packets never carry payloads (token-only traffic).
func SavePacket(e *sim.Enc, p *Packet, pc PayloadCodec) {
	e.Int(p.Src)
	e.Int(p.Dst)
	e.Bool(p.HasTok)
	if p.HasTok {
		token.SaveToken(e, p.Tok)
	}
	e.Bool(p.Payload != nil)
	if p.Payload != nil {
		if pc == nil {
			panic("network: packet carries a payload but the fabric was saved without a codec")
		}
		pc.Save(e, p.Payload)
	}
	e.Cycle(p.InjectedAt)
	e.Int(p.Hops)
	e.U64(p.id)
	e.Len(len(p.path))
	for _, st := range p.path {
		e.Int(st.stage)
		e.Int(st.sw)
		e.Int(st.inPort)
	}
	e.Cycle(p.moved)
}

// LoadPacket reads one freshly allocated packet.
func LoadPacket(d *sim.Dec, pc PayloadCodec) *Packet {
	p := &Packet{}
	p.Src = d.Int()
	p.Dst = d.Int()
	p.HasTok = d.Bool()
	if p.HasTok {
		p.Tok = token.LoadToken(d)
	}
	if d.Bool() {
		if pc == nil {
			d.Failf("packet carries a payload but the fabric loads without a codec")
			return p
		}
		p.Payload = pc.Load(d)
	}
	p.InjectedAt = d.Cycle()
	p.Hops = d.Int()
	p.id = d.U64()
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return p
	}
	p.path = make([]pathStep, n)
	for i := range p.path {
		p.path[i] = pathStep{stage: d.Int(), sw: d.Int(), inPort: d.Int()}
	}
	p.moved = d.Cycle()
	return p
}

// Save appends the traffic counters.
func (s *Stats) Save(e *sim.Enc) {
	s.Injected.Save(e)
	s.Delivered.Save(e)
	s.Latency.Save(e)
	s.Hops.Save(e)
	s.Refused.Save(e)
}

// Load restores the traffic counters.
func (s *Stats) Load(d *sim.Dec) {
	s.Injected.Load(d)
	s.Delivered.Load(d)
	s.Latency.Load(d)
	s.Hops.Load(d)
	s.Refused.Load(d)
}

// saveQueue appends a bounded packet queue's contents.
func saveQueue(e *sim.Enc, q *queue, pc PayloadCodec) {
	e.Len(len(q.buf))
	for _, p := range q.buf {
		SavePacket(e, p, pc)
	}
}

// loadQueue restores a bounded packet queue, enforcing its capacity, and
// returns the number of packets loaded.
func loadQueue(d *sim.Dec, q *queue, pc PayloadCodec) int {
	n := d.Len(q.cap)
	if d.Err() != nil {
		return 0
	}
	q.buf = q.buf[:0]
	for i := 0; i < n; i++ {
		q.buf = append(q.buf, LoadPacket(d, pc))
	}
	return n
}

// saveIntSlice appends a fixed-shape int slice (round-robin pointers,
// partition assignments) whose length is configuration.
func saveIntSlice(e *sim.Enc, v []int) {
	for _, x := range v {
		e.Int(x)
	}
}

func loadIntSlice(d *sim.Dec, v []int) {
	for i := range v {
		v[i] = d.Int()
	}
}

// SaveTo appends the ideal fabric's dynamic state.
func (n *Ideal) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.ideal", 1)
	e.Cycle(n.now)
	n.stats.Save(e)
	sim.SaveFIFO(e, &n.inflight, func(e *sim.Enc, tp timedPacket) {
		e.Cycle(tp.due)
		SavePacket(e, tp.p, pc)
	})
}

// LoadFrom restores the ideal fabric's dynamic state.
func (n *Ideal) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.ideal", 1); err != nil {
		return err
	}
	n.now = d.Cycle()
	n.stats.Load(d)
	return sim.LoadFIFO(d, &n.inflight, d.Remaining(), func(d *sim.Dec) timedPacket {
		return timedPacket{due: d.Cycle(), p: LoadPacket(d, pc)}
	})
}

// SaveTo appends the crossbar's dynamic state.
func (c *Crossbar) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.xbar", 1)
	e.Cycle(c.now)
	e.Int(c.pending)
	saveIntSlice(e, c.rr)
	for _, q := range c.in {
		saveQueue(e, q, pc)
	}
	sim.SaveFIFO(e, &c.inflight, func(e *sim.Enc, f flight) {
		e.Cycle(f.at)
		SavePacket(e, f.p, pc)
	})
	c.stats.Save(e)
}

// LoadFrom restores the crossbar's dynamic state. The arbitration bitmasks,
// active-output mask and head-destination cache are derived from the
// restored queues, not decoded.
func (c *Crossbar) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.xbar", 1); err != nil {
		return err
	}
	c.now = d.Cycle()
	c.pending = d.Int()
	loadIntSlice(d, c.rr)
	got := 0
	for i, q := range c.in {
		got += loadQueue(d, q, pc)
		for j := range c.reqs[i] {
			c.reqs[i][j] = 0
		}
		c.headDst[i] = -1
	}
	clear(c.active)
	for i := range c.in {
		c.syncHead(i)
	}
	if err := sim.LoadFIFO(d, &c.inflight, d.Remaining(), func(d *sim.Dec) flight {
		return flight{at: d.Cycle(), p: LoadPacket(d, pc)}
	}); err != nil {
		return err
	}
	c.stats.Load(d)
	if d.Err() == nil && c.pending != got+c.inflight.Len() {
		d.Failf("crossbar pending %d != %d queued + %d in flight",
			c.pending, got, c.inflight.Len())
	}
	return d.Err()
}

// SaveTo appends the mesh's dynamic state.
func (m *Mesh) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.mesh", 1)
	e.Cycle(m.now)
	e.Int(m.pending)
	saveIntSlice(e, m.rr)
	for _, qs := range m.in {
		for _, q := range qs {
			saveQueue(e, q, pc)
		}
	}
	m.stats.Save(e)
}

// LoadFrom restores the mesh's dynamic state.
func (m *Mesh) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.mesh", 1); err != nil {
		return err
	}
	m.now = d.Cycle()
	m.pending = d.Int()
	loadIntSlice(d, m.rr)
	got := 0
	for _, qs := range m.in {
		for _, q := range qs {
			got += loadQueue(d, q, pc)
		}
	}
	m.stats.Load(d)
	if d.Err() == nil && m.pending != got {
		d.Failf("mesh pending %d != %d queued", m.pending, got)
	}
	return d.Err()
}

// SaveTo appends the hypercube's dynamic state, including the runtime
// topology mutations (link faults, partitions, table routing): the
// emulation facility changes these between phases, so a checkpoint must
// carry them.
func (h *Hypercube) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.cube", 1)
	e.Cycle(h.now)
	e.Int(h.pending)
	saveIntSlice(e, h.rr)
	for _, row := range h.alive {
		for _, a := range row {
			e.Bool(a)
		}
	}
	saveIntSlice(e, h.partition)
	e.Bool(h.table != nil)
	for _, qs := range h.in {
		for _, q := range qs {
			saveQueue(e, q, pc)
		}
	}
	h.stats.Save(e)
}

// LoadFrom restores the hypercube's dynamic state. Routing tables are a
// deterministic function of the live links and partitions, so only their
// presence is encoded; they are recomputed on load.
func (h *Hypercube) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.cube", 1); err != nil {
		return err
	}
	h.now = d.Cycle()
	h.pending = d.Int()
	loadIntSlice(d, h.rr)
	for _, row := range h.alive {
		for k := range row {
			row[k] = d.Bool()
		}
	}
	loadIntSlice(d, h.partition)
	if d.Bool() {
		h.RecomputeTables()
	} else {
		h.table = nil
	}
	got := 0
	for _, qs := range h.in {
		for _, q := range qs {
			got += loadQueue(d, q, pc)
		}
	}
	h.stats.Load(d)
	if d.Err() == nil && h.pending != got {
		d.Failf("hypercube pending %d != %d queued", h.pending, got)
	}
	return d.Err()
}

// SaveTo appends the omega network's dynamic state: switch queues in both
// directions, deferred decombined replies, and the pending decombine
// records (splitter plus parked partner packet, keyed by merged request
// id, in sorted id order for canonical bytes).
func (o *Omega) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.omega", 1)
	e.Cycle(o.now)
	e.U64(o.nextID)
	e.Int(o.pending)
	for s := 0; s < o.k; s++ {
		for sw := 0; sw < o.n/2; sw++ {
			for out := 0; out < 2; out++ {
				saveQueue(e, o.fwd[s][sw][out], pc)
			}
		}
	}
	for s := 0; s < o.k; s++ {
		for sw := 0; sw < o.n/2; sw++ {
			for in := 0; in < 2; in++ {
				saveQueue(e, o.rev[s][sw][in], pc)
			}
		}
	}
	e.Len(len(o.deferred))
	for _, p := range o.deferred {
		SavePacket(e, p, pc)
	}
	for s := 0; s < o.k; s++ {
		recs := o.decombine[s]
		ids := make([]uint64, 0, len(recs))
		for id := range recs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.Len(len(ids))
		for _, id := range ids {
			rec := recs[id]
			e.U64(id)
			if pc == nil {
				panic("network: omega has pending decombines but was saved without a codec")
			}
			pc.Save(e, rec.split)
			SavePacket(e, rec.partner, pc)
		}
	}
	o.stats.Save(e)
	o.CombineOps.Save(e)
	o.DecombineTable.Save(e)
}

// LoadFrom restores the omega network's dynamic state.
func (o *Omega) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.omega", 1); err != nil {
		return err
	}
	o.now = d.Cycle()
	o.nextID = d.U64()
	o.pending = d.Int()
	o.free = o.free[:0]
	got := 0
	for s := 0; s < o.k; s++ {
		for sw := 0; sw < o.n/2; sw++ {
			for out := 0; out < 2; out++ {
				got += loadQueue(d, o.fwd[s][sw][out], pc)
			}
		}
	}
	for s := 0; s < o.k; s++ {
		for sw := 0; sw < o.n/2; sw++ {
			for in := 0; in < 2; in++ {
				got += loadQueue(d, o.rev[s][sw][in], pc)
			}
		}
	}
	nd := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	o.deferred = o.deferred[:0]
	for i := 0; i < nd; i++ {
		o.deferred = append(o.deferred, LoadPacket(d, pc))
	}
	for s := 0; s < o.k; s++ {
		recs := map[uint64]*splitRecord{}
		n := d.Len(d.Remaining())
		if d.Err() != nil {
			return d.Err()
		}
		for i := 0; i < n; i++ {
			id := d.U64()
			if pc == nil {
				d.Failf("omega decombine record with no codec")
				return d.Err()
			}
			v := pc.Load(d)
			sp, ok := v.(Splitter)
			if !ok && d.Err() == nil {
				d.Failf("decombine record %d decoded to %T, not a Splitter", id, v)
			}
			partner := LoadPacket(d, pc)
			if d.Err() != nil {
				return d.Err()
			}
			if _, dup := recs[id]; dup {
				d.Failf("duplicate decombine record for request id %d", id)
				return d.Err()
			}
			recs[id] = &splitRecord{split: sp, partner: partner}
		}
		o.decombine[s] = recs
	}
	o.stats.Load(d)
	o.CombineOps.Load(d)
	o.DecombineTable.Load(d)
	if d.Err() == nil && o.pending != got {
		d.Failf("omega pending %d != %d queued", o.pending, got)
	}
	return d.Err()
}

// SaveTo appends the retry queue's waiting packets.
func (q *RetryQueue) SaveTo(e *sim.Enc, pc PayloadCodec) {
	e.Tag("net.retry", 1)
	sim.SaveFIFO(e, &q.queue, func(e *sim.Enc, p *Packet) {
		SavePacket(e, p, pc)
	})
}

// LoadFrom restores the retry queue. The per-source occupancy counts are
// derived from the queue contents, not decoded.
func (q *RetryQueue) LoadFrom(d *sim.Dec, pc PayloadCodec) error {
	if err := d.Tag("net.retry", 1); err != nil {
		return err
	}
	if err := sim.LoadFIFO(d, &q.queue, d.Remaining(), func(d *sim.Dec) *Packet {
		return LoadPacket(d, pc)
	}); err != nil {
		return err
	}
	for k := range q.queuedBySrc {
		delete(q.queuedBySrc, k)
	}
	for i := 0; i < q.queue.Len(); i++ {
		q.queuedBySrc[q.queue.At(i).Src]++
	}
	return d.Err()
}
