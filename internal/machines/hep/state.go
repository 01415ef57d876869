package hep

import (
	"repro/internal/sim"
	"repro/internal/vn"
)

// Checkpoint serialization. The program and configuration are static
// structure: a checkpoint restores into a freshly built Machine over the
// identical Config and program. In-flight request callbacks rebind through
// vn.Resolver over the machine's cores.

// SaveTo appends the memory's dynamic state: both word and full/empty
// stores (in sorted address order), the attempt queue, and responses in
// flight.
func (m *FullEmptyMemory) SaveTo(e *sim.Enc) {
	e.Tag("hepmem", 1)
	sim.SaveU32Map(e, m.words, func(e *sim.Enc, w vn.Word) { e.I64(w) })
	sim.SaveU32Map(e, m.full, func(e *sim.Enc, b bool) { e.Bool(b) })
	e.Cycle(m.busyUntil)
	e.Int(m.pending)
	m.Served.Save(e)
	m.Retries.Save(e)
	sim.SaveFIFO(e, &m.queue, vn.SaveMemRequest)
	sim.SaveFIFO(e, &m.due, func(e *sim.Enc, dc dueCompleted) {
		e.Cycle(dc.at)
		vn.SaveMemRequest(e, dc.c.r)
		e.I64(dc.c.v)
	})
}

// LoadFrom restores the memory, rebinding callbacks through resolve.
func (m *FullEmptyMemory) LoadFrom(d *sim.Dec, resolve vn.DoneResolver) error {
	if err := d.Tag("hepmem", 1); err != nil {
		return err
	}
	sim.LoadU32Map(d, m.words, func(d *sim.Dec) vn.Word { return d.I64() })
	sim.LoadU32Map(d, m.full, func(d *sim.Dec) bool { return d.Bool() })
	m.busyUntil = d.Cycle()
	m.pending = d.Int()
	m.Served.Load(d)
	m.Retries.Load(d)
	if err := sim.LoadFIFO(d, &m.queue, d.Remaining(), func(d *sim.Dec) vn.MemRequest {
		return vn.LoadMemRequest(d, resolve)
	}); err != nil {
		return err
	}
	if err := sim.LoadFIFO(d, &m.due, d.Remaining(), func(d *sim.Dec) dueCompleted {
		dc := dueCompleted{at: d.Cycle()}
		dc.c.r = vn.LoadMemRequest(d, resolve)
		dc.c.v = d.I64()
		return dc
	}); err != nil {
		return err
	}
	if d.Err() == nil && m.pending != m.queue.Len()+m.due.Len() {
		d.Failf("hep memory pending %d != %d queued + %d due",
			m.pending, m.queue.Len(), m.due.Len())
	}
	return d.Err()
}

// SaveState appends the whole machine's dynamic state (sim.Stateful).
func (m *Machine) SaveState(e *sim.Enc) {
	e.Tag("hep", 1)
	m.engine.SaveState(e)
	m.mem.SaveTo(e)
	e.Len(len(m.cores))
	for _, c := range m.cores {
		c.SaveState(e)
	}
}

// LoadState restores the machine (sim.Stateful).
func (m *Machine) LoadState(d *sim.Dec) error {
	if err := d.Tag("hep", 1); err != nil {
		return err
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	if err := m.mem.LoadFrom(d, vn.Resolver(m.cores)); err != nil {
		return err
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.cores) {
		d.Failf("checkpoint has %d cores, machine has %d", n, len(m.cores))
		return d.Err()
	}
	for _, c := range m.cores {
		if err := c.LoadState(d); err != nil {
			return err
		}
	}
	return d.Err()
}

var _ sim.Stateful = (*Machine)(nil)
