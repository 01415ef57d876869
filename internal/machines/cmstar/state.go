package cmstar

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/vn"
)

// Checkpoint serialization. A remote reference in flight exists as (a) an
// entry in remoteOut, (b) either a forward transit event, a request queued
// in the remote bus, or a reply transit event. The bus-side callback is
// named by doneRefRemoteReply whose B field is the remoteOut id; restore
// rebuilds the callback from the table.

// doneRefRemoteReply marks a bus-side callback wrapped by the Kmap remote
// path: B is the remoteOut id.
const doneRefRemoteReply = vn.DoneRefMachine

// resolver maps checkpoint DoneRefs back to live callbacks.
func (m *Machine) resolver() vn.DoneResolver {
	cores := vn.Resolver(m.cores)
	return func(ref vn.DoneRef) func(vn.Word) {
		if ref.Kind != doneRefRemoteReply {
			return cores(ref)
		}
		if _, ok := m.remoteOut[ref.B]; !ok {
			return nil
		}
		return m.remoteReplyDone(ref.B)
	}
}

// SaveState appends the whole machine's dynamic state (sim.Stateful).
func (m *Machine) SaveState(e *sim.Enc) {
	e.Tag("cmstar", 1)
	m.engine.SaveState(e)
	e.Cycle(m.now)
	for _, b := range m.kmapBusy {
		e.Cycle(b)
	}
	m.stats.LocalRefs.Save(e)
	m.stats.RemoteRefs.Save(e)
	m.stats.RemoteLatency.Save(e)

	e.U64(m.remoteSeq)
	ids := make([]uint64, 0, len(m.remoteOut))
	for id := range m.remoteOut {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Len(len(ids))
	for _, id := range ids {
		rec := m.remoteOut[id]
		e.U64(id)
		e.Cycle(rec.issued)
		e.Cycle(rec.transit)
		vn.SaveDoneRef(e, rec.origRef)
	}

	e.Cycle(m.kq.now)
	e.U64(m.kq.seq)
	evs := append([]kmapEvent(nil), m.kq.h...)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	e.Len(len(evs))
	for _, ev := range evs {
		e.Cycle(ev.at)
		e.U64(ev.seq)
		e.Bool(ev.isReply)
		if ev.isReply {
			e.I64(ev.value)
			e.Cycle(ev.issued)
			vn.SaveDoneRef(e, ev.origRef)
		} else {
			e.Int(ev.target)
			vn.SaveMemRequest(e, ev.req)
		}
	}

	e.Len(len(m.buses))
	for _, b := range m.buses {
		b.SaveTo(e)
	}
	e.Len(len(m.cores))
	for _, c := range m.cores {
		c.SaveState(e)
	}
}

// LoadState restores the machine (sim.Stateful).
func (m *Machine) LoadState(d *sim.Dec) error {
	if err := d.Tag("cmstar", 1); err != nil {
		return err
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	m.now = d.Cycle()
	for i := range m.kmapBusy {
		m.kmapBusy[i] = d.Cycle()
	}
	m.stats.LocalRefs.Load(d)
	m.stats.RemoteRefs.Load(d)
	m.stats.RemoteLatency.Load(d)

	cores := vn.Resolver(m.cores)
	m.remoteSeq = d.U64()
	for id := range m.remoteOut {
		delete(m.remoteOut, id)
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < n; i++ {
		id := d.U64()
		rec := &remoteRec{issued: d.Cycle(), transit: d.Cycle(), origRef: vn.LoadDoneRef(d)}
		rec.origDone = vn.MustResolve(d, cores, rec.origRef)
		if d.Err() != nil {
			return d.Err()
		}
		if _, dup := m.remoteOut[id]; dup {
			d.Failf("duplicate outstanding remote reference %d", id)
			return d.Err()
		}
		m.remoteOut[id] = rec
	}

	resolve := m.resolver()
	m.kq.now = d.Cycle()
	m.kq.seq = d.U64()
	m.kq.h = m.kq.h[:0]
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < n; i++ {
		ev := kmapEvent{at: d.Cycle(), seq: d.U64(), isReply: d.Bool()}
		if ev.isReply {
			ev.value = d.I64()
			ev.issued = d.Cycle()
			ev.origRef = vn.LoadDoneRef(d)
			ev.origDone = vn.MustResolve(d, cores, ev.origRef)
		} else {
			ev.target = d.Int()
			ev.req = vn.LoadMemRequest(d, resolve)
			if d.Err() == nil && (ev.target < 0 || ev.target >= len(m.buses)) {
				d.Failf("transit event targets cluster %d of %d", ev.target, len(m.buses))
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
		// Events were saved in dispatch order; appending preserves the heap
		// property, and the saved seq keeps tie-breaking identical.
		m.kq.h = append(m.kq.h, ev)
	}

	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.buses) {
		d.Failf("checkpoint has %d buses, machine has %d", n, len(m.buses))
		return d.Err()
	}
	for _, b := range m.buses {
		if err := b.LoadFrom(d, resolve); err != nil {
			return err
		}
	}
	n = d.Len(d.Remaining())
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
