package cpu

// Snapshot/Restore for the SMT core (DESIGN §15). Architectural state is
// serialized verbatim: per-thread ROB arrays (whole arrays, not just live
// entries — stale slots participate in slot-recycling checks), the live part
// of the frontend, replay and in-flight-load deques, and every counter the
// run loop or stats collection reads. Configuration and wiring (caches, event
// queue, warmup targets) are not serialized — restore targets a CPU
// assembled from an identical Config.
//
// The wakeup state (DESIGN §11) is derived, not serialized. The format
// carries only the issue queue's order — every live waiting uop as a
// (thread, slot) pair in dispatch order — and Restore re-enters them through
// enqueue, which rebuilds dispatch stamps, unknown-producer counts, consumer
// lists and the ready set. The rebuild is exact where it matters: a consumer
// is linked to a producer exactly when that producer's completion time is
// unknown now, live and restored alike, and pushing in dispatch order
// reproduces each list's order. A rebuilt readyAt can be lower than the live
// one only where a producer has since committed — then both are <= now, and
// every use of readyAt compares it against a cycle >= now.
// TestSnapshotFieldCoverage lists which field of uop, thread and CPU falls
// in which class.

import (
	"fmt"
	"sort"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

const sectionCPU = 0x53435055 // "CPUS"

func writeInstr(w *snap.Writer, in workload.Instr) {
	w.U8(uint8(in.Kind))
	w.U64(in.PC)
	w.U64(in.Addr)
	w.I64(int64(in.Dep1))
	w.I64(int64(in.Dep2))
	w.I64(int64(in.Lat))
	w.Bool(in.Mispredict)
	w.Bool(in.Taken)
}

func readInstr(r *snap.Reader) workload.Instr {
	return workload.Instr{
		Kind:       workload.Kind(r.U8()),
		PC:         r.U64(),
		Addr:       r.U64(),
		Dep1:       int16(r.I64()),
		Dep2:       int16(r.I64()),
		Lat:        uint32(r.I64()),
		Mispredict: r.Bool(),
		Taken:      r.Bool(),
	}
}

func writeCacheMeta(w *snap.Writer, m cache.Meta) {
	w.I64(int64(m.Thread))
	w.Bool(m.Critical)
	w.I64(int64(m.State.Outstanding))
	w.I64(int64(m.State.ROBOccupancy))
	w.I64(int64(m.State.IQOccupancy))
}

func readCacheMeta(r *snap.Reader) cache.Meta {
	m := cache.Meta{Thread: int(r.I64()), Critical: r.Bool()}
	m.State.Outstanding = int(r.I64())
	m.State.ROBOccupancy = int(r.I64())
	m.State.IQOccupancy = int(r.I64())
	return m
}

func writeUop(w *snap.Writer, u *uop) {
	writeInstr(w, u.in)
	w.U64(u.seq)
	w.U64(u.epoch)
	w.U8(u.state)
	w.U64(u.doneAt)
	w.U64(u.issuedAt)
	w.U64(u.dep1)
	w.U64(u.dep2)
}

func readUop(r *snap.Reader, tid int32) uop {
	return uop{
		in:       readInstr(r),
		seq:      r.U64(),
		epoch:    r.U64(),
		tid:      tid,
		state:    r.U8(),
		doneAt:   r.U64(),
		issuedAt: r.U64(),
		dep1:     r.U64(),
		dep2:     r.U64(),
	}
}

// slotOf is how ROB-internal pointers (issue queue, in-flight loads)
// serialize: any occupant's seq maps to the slot it lives in, so the pair
// (thread, seq&robMask) names the pointed-at slot even for poisoned or
// recycled entries.
func slotOf(t *thread, u *uop) uint64 { return u.seq & t.robMask }

// issueQueue lists every live waiting uop in dispatch order.
func (c *CPU) issueQueue() []*uop {
	iq := make([]*uop, 0, c.intIQUsed+c.fpIQUsed)
	for _, t := range c.threads {
		for s := t.headSeq; s < t.nextSeq; s++ {
			if u := t.slot(s); u.state == stWaiting {
				iq = append(iq, u)
			}
		}
	}
	sort.Slice(iq, func(i, j int) bool { return iq[i].stamp < iq[j].stamp })
	return iq
}

// Snapshot serializes the core's mutable state.
func (c *CPU) Snapshot(w *snap.Writer) error {
	w.Marker(sectionCPU)
	w.U64(c.Cycles)
	w.U64(c.TotalCommitted)
	w.I64(int64(c.rrFetch))
	w.I64(int64(c.rrDispatch))
	w.I64(int64(c.rrCommit))
	w.I64(int64(c.intIQUsed))
	w.I64(int64(c.fpIQUsed))
	w.I64(int64(c.lqUsed))
	w.I64(int64(c.sqUsed))
	w.Bool(c.wake)
	w.Bool(c.acted)

	// Committed-store deque, head-normalized (live entries only).
	live := c.pendingStores[c.psHead:]
	w.U64(uint64(len(live)))
	for _, s := range live {
		w.U64(s.addr)
		writeCacheMeta(w, s.meta)
	}

	iq := c.issueQueue()
	w.U64(uint64(len(iq)))
	for _, u := range iq {
		w.U64(uint64(u.tid))
		w.U64(slotOf(c.threads[u.tid], u))
	}

	w.U64(uint64(len(c.threads)))
	for _, t := range c.threads {
		w.Bool(t.hasPeeked)
		if t.hasPeeked {
			writeInstr(w, t.peeked)
		}
		w.U64(uint64(len(t.replay) - t.rpHead))
		for _, in := range t.replay[t.rpHead:] {
			writeInstr(w, in)
		}
		fe := t.frontend[t.feHead:]
		w.U64(uint64(len(fe)))
		for _, e := range fe {
			writeInstr(w, e.in)
			w.U64(e.readyAt)
		}
		w.U64(uint64(len(t.rob)))
		for i := range t.rob {
			writeUop(w, &t.rob[i])
		}
		w.U64(t.headSeq)
		w.U64(t.nextSeq)
		w.U64(t.epoch)
		w.I64(int64(t.iqInt))
		w.I64(int64(t.iqFP))
		w.I64(int64(t.lq))
		w.I64(int64(t.sq))
		w.U64(t.committed)
		w.U64(uint64(t.outstanding()))
		for _, u := range t.inFlight[t.ifHead:] {
			w.U64(slotOf(t, u))
		}
		w.U64(t.curILine)
		w.Bool(t.imissPending)
		w.U64(t.fetchBlockedUntil)
		w.U64(t.warmedAt)
		w.U64(t.finishedAt)
		w.U64(t.squashes)
		w.U64(t.loads)
		w.U64(t.stores)
		w.U64(t.imisses)
		w.U64(t.gated)
	}
	return nil
}

// Restore rebuilds the core's mutable state from r into a CPU assembled from
// the identical Config and thread count (instruction sources are restored
// separately by the caller).
func (c *CPU) Restore(r *snap.Reader) error {
	r.Expect(sectionCPU)
	c.Cycles = r.U64()
	c.TotalCommitted = r.U64()
	c.rrFetch = int(r.I64())
	c.rrDispatch = int(r.I64())
	c.rrCommit = int(r.I64())
	c.intIQUsed = int(r.I64())
	c.fpIQUsed = int(r.I64())
	c.lqUsed = int(r.I64())
	c.sqUsed = int(r.I64())
	c.wake = r.Bool()
	c.acted = r.Bool()

	c.pendingStores = c.pendingStores[:0]
	c.psHead = 0
	nPS := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	for i := uint64(0); i < nPS; i++ {
		c.pendingStores = append(c.pendingStores, pendingStore{addr: r.U64(), meta: readCacheMeta(r)})
	}

	type slotRef struct{ tid, slot uint64 }
	nW := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	waitRefs := make([]slotRef, nW)
	for i := range waitRefs {
		waitRefs[i] = slotRef{tid: r.U64(), slot: r.U64()}
	}

	nT := r.U64()
	if r.Err() == nil && nT != uint64(len(c.threads)) {
		return fmt.Errorf("%w: snapshot has %d threads, cpu has %d", snap.ErrCorrupt, nT, len(c.threads))
	}
	for _, t := range c.threads {
		t.hasPeeked = r.Bool()
		if t.hasPeeked {
			t.peeked = readInstr(r)
		}
		t.replay, t.rpHead = t.replay[:0], 0
		nRep := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nRep; i++ {
			t.replay = append(t.replay, readInstr(r))
		}
		t.frontend = t.frontend[:0]
		t.feHead = 0
		nFE := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nFE; i++ {
			t.frontend = append(t.frontend, feEntry{in: readInstr(r), readyAt: r.U64()})
		}
		nROB := r.U64()
		if r.Err() == nil && nROB != uint64(len(t.rob)) {
			return fmt.Errorf("%w: snapshot ROB depth %d, configured %d", snap.ErrCorrupt, nROB, len(t.rob))
		}
		for i := range t.rob {
			t.rob[i] = readUop(r, int32(t.id))
		}
		t.headSeq = r.U64()
		t.nextSeq = r.U64()
		t.epoch = r.U64()
		t.iqInt = int(r.I64())
		t.iqFP = int(r.I64())
		t.lq = int(r.I64())
		t.sq = int(r.I64())
		t.committed = r.U64()
		t.inFlight, t.ifHead = t.inFlight[:0], 0
		nIF := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nIF; i++ {
			slot := r.U64()
			if slot >= uint64(len(t.rob)) {
				return fmt.Errorf("%w: in-flight slot %d out of range", snap.ErrCorrupt, slot)
			}
			t.inFlight = append(t.inFlight, &t.rob[slot])
		}
		t.curILine = r.U64()
		t.imissPending = r.Bool()
		t.fetchBlockedUntil = r.U64()
		t.warmedAt = r.U64()
		t.finishedAt = r.U64()
		t.squashes = r.U64()
		t.loads = r.U64()
		t.stores = r.U64()
		t.imisses = r.U64()
		t.gated = r.U64()
	}

	// Rebuild the wakeup state: re-enter the issue queue in dispatch order.
	// Only the order of stamps matters, so they restart — at 1, which leaves
	// 0 (what readUop produced) to mark a slot not yet re-entered.
	c.ready, c.nextStamp = c.ready[:0], 1
	for _, wr := range waitRefs {
		if wr.tid >= uint64(len(c.threads)) {
			return fmt.Errorf("%w: waiting entry thread %d out of range", snap.ErrCorrupt, wr.tid)
		}
		t := c.threads[wr.tid]
		if wr.slot >= uint64(len(t.rob)) {
			return fmt.Errorf("%w: waiting entry slot %d out of range", snap.ErrCorrupt, wr.slot)
		}
		u := &t.rob[wr.slot]
		if u.state != stWaiting || u.seq < t.headSeq || u.seq >= t.nextSeq || u.stamp != 0 {
			return fmt.Errorf("%w: waiting entry (%d, %d) is not a live waiting uop", snap.ErrCorrupt, wr.tid, wr.slot)
		}
		c.enqueue(t, u)
	}
	return r.Err()
}

// ResolveRef maps CPU-kind references (pending load fills, I-fills, branch
// resolutions) to carriers drawn from the pools, exactly as the live run
// would have allocated them.
func (c *CPU) ResolveRef(ref *snap.Ref, _ uint8) (any, error) {
	if len(ref.Args) != 3 {
		return nil, fmt.Errorf("%w: cpu ref needs 3 args, got %d", snap.ErrCorrupt, len(ref.Args))
	}
	tid := ref.Args[0]
	if tid >= uint64(len(c.threads)) {
		return nil, fmt.Errorf("%w: cpu ref thread %d out of range", snap.ErrCorrupt, tid)
	}
	t := c.threads[tid]
	switch ref.Kind {
	case snap.KCPULoadFill:
		f := c.getLoadFill()
		f.t, f.seq, f.epoch = t, ref.Args[1], ref.Args[2]
		return f, nil
	case snap.KCPUIFill:
		f := c.getIFill()
		f.t, f.line, f.epoch = t, ref.Args[1], ref.Args[2]
		return f, nil
	case snap.KCPUBranch:
		e := c.getBrEvent()
		e.t, e.seq, e.epoch = t, ref.Args[1], ref.Args[2]
		return e, nil
	default:
		return nil, fmt.Errorf("%w: ref kind %d is not a cpu kind", snap.ErrCorrupt, ref.Kind)
	}
}
