package cpu

// The SMT core's snapshot walk (DESIGN §15). Architectural state is in the
// format verbatim: per-thread ROB arrays (whole arrays, not just live entries
// — stale slots participate in slot-recycling checks and hold the squashed
// instructions a refetch reads), the stream cursors with the live parts of
// the pending and frontend rings, the in-flight-load deque, and every counter
// the run loop or stats collection reads. Configuration and wiring (caches,
// event queue, warmup targets) are not — a restore targets a CPU assembled
// from an identical Config.
//
// The issue-queue table (DESIGN §11) is derived, not serialized. The format
// carries only the issue queue's order — every live waiting uop as a
// (thread, slot) pair in dispatch order — and loading re-enters them through
// enqueue, which rebuilds entries, producer seqs, dispatch stamps,
// unknown-producer counts, consumer lists and the ready set. The rebuild is
// exact where it matters: a consumer is linked to a producer exactly when
// that producer's completion time is unknown now, live and restored alike,
// and pushing in dispatch order reproduces each list's order. Entry indices
// may differ, and nothing observes them. A rebuilt readyAt can be lower than
// the live one only where a producer has since committed — then both are
// <= now, and every use of readyAt compares it against a cycle >= now.
//
// Each ROB slot's frame record still carries the two producer seqs the slot
// held when the uop lived in it: depSeq of its seq and deps for a slot that
// has been dispatched into (index below dispatched), 0 for one never used.
// Saving computes them and loading discards them.
// TestSnapshotFieldCoverage lists which field of uop, iqEntry, thread and
// CPU falls in which class.

import (
	"fmt"
	"sort"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

const sectionCPU = 0x53435055 // "CPUS"

func snapInstr(c *snap.Codec, in *workload.Instr) {
	c.U8((*uint8)(&in.Kind))
	c.U64(&in.PC)
	c.U64(&in.Addr)
	snap.I64As(c, &in.Dep1)
	snap.I64As(c, &in.Dep2)
	snap.I64As(c, &in.Lat)
	c.Bool(&in.Mispredict)
	c.Bool(&in.Taken)
}

// snapDeque walks a head-indexed deque head-normalized: the live entries
// buf[head:] are the format, and loading refills buf from its start.
func snapDeque[T any](c *snap.Codec, buf *[]T, head *int, elem func(*T)) {
	live := (*buf)[*head:]
	if c.Loading() {
		live = (*buf)[:0]
	}
	snap.Slice(c, &live, elem)
	if c.Loading() {
		*buf, *head = live, 0
	}
}

// slotRef is how ROB-internal pointers (issue queue, in-flight loads)
// serialize: any occupant's seq maps to the slot it lives in, so the pair
// (thread, seq&robMask) names the pointed-at slot even for poisoned or
// recycled entries. Loading a slot the ROB does not have fails the walk and
// leaves *p alone.
func slotRef(c *snap.Codec, t *thread, p **uop) {
	var slot uint64
	if !c.Loading() {
		slot = (*p).seq & t.robMask
	}
	c.U64(&slot)
	if !c.Loading() {
		return
	}
	if slot >= uint64(len(t.rob)) {
		c.Fail(fmt.Errorf("%w: ROB slot %d out of range", snap.ErrCorrupt, slot))
		return
	}
	*p = &t.rob[slot]
}

// issueQueue lists every live waiting uop in dispatch order.
func (c *CPU) issueQueue() []*uop {
	iq := make([]*uop, 0, c.intIQUsed+c.fpIQUsed)
	for _, t := range c.threads {
		for s := t.headSeq; s < t.nextSeq; s++ {
			if u := t.slot(s); u.iq != 0 {
				iq = append(iq, u)
			}
		}
	}
	sort.Slice(iq, func(i, j int) bool { return c.iq[iq[i].iq-1].stamp < c.iq[iq[j].iq-1].stamp })
	return iq
}

// Snap walks the core's mutable state. A restore targets a CPU assembled
// from the identical Config and thread count (the caller walks the
// instruction sources separately).
func (c *CPU) Snap(s *snap.Codec) error {
	s.Marker(sectionCPU)
	s.U64(&c.Cycles)
	s.U64(&c.TotalCommitted)
	s.Int(&c.rrFetch)
	s.Int(&c.rrDispatch)
	s.Int(&c.rrCommit)
	s.Int(&c.intIQUsed)
	s.Int(&c.fpIQUsed)
	s.Int(&c.lqUsed)
	s.Int(&c.sqUsed)
	s.Bool(&c.wake)
	s.Bool(&c.acted)

	snapDeque(s, &c.pendingStores, &c.psHead, func(ps *pendingStore) {
		s.U64(&ps.addr)
		cache.SnapMeta(s, &ps.meta)
	})

	// The issue queue's order. Its slots are resolved after the ROBs they
	// point into are back, at the end of the walk.
	type waitRef struct{ tid, slot uint64 }
	var iq []waitRef
	if !s.Loading() {
		for _, u := range c.issueQueue() {
			iq = append(iq, waitRef{uint64(u.tid), u.seq & c.threads[u.tid].robMask})
		}
	}
	snap.Slice(s, &iq, func(w *waitRef) {
		s.U64(&w.tid)
		s.U64(&w.slot)
	})

	s.Fixed(len(c.threads), "threads")
	for _, t := range c.threads {
		s.Fixed(len(t.rob), "ROB slots")
		for i := range t.rob {
			u := &t.rob[i]
			if s.Loading() {
				*u = uop{tid: uint8(t.id)} // derived fields restart from zero
			}
			snapInstr(s, &u.in)
			s.U64(&u.seq)
			s.U64(&u.epoch)
			s.U8(&u.state)
			s.U64(&u.doneAt)
			s.U64(&u.issuedAt)
			var dep [2]uint64
			if uint64(i) < t.dispatched {
				dep = [2]uint64{depSeq(u.seq, u.in.Dep1), depSeq(u.seq, u.in.Dep2)}
			}
			s.U64(&dep[0])
			s.U64(&dep[1])
		}
		s.U64(&t.headSeq)
		s.U64(&t.nextSeq)
		s.U64(&t.fetchSeq)
		s.U64(&t.dispatched)
		s.U64(&t.genSeq)
		if s.Loading() && s.Err() == nil {
			if err := t.checkCursors(c.cfg); err != nil {
				s.Fail(fmt.Errorf("%w: thread %d: %v", snap.ErrCorrupt, t.id, err))
			}
		}
		if s.Err() == nil { // a failed load's cursors bound nothing
			for seq := t.dispatched; seq < t.genSeq; seq++ {
				snapInstr(s, &t.pending[seq&t.feMask])
			}
			for seq := t.nextSeq; seq < t.fetchSeq; seq++ {
				s.U64(&t.feReady[seq&t.feMask])
			}
		}
		s.U64(&t.epoch)
		s.Int(&t.iqInt)
		s.Int(&t.iqFP)
		s.Int(&t.lq)
		s.Int(&t.sq)
		s.U64(&t.committed)
		snapDeque(s, &t.inFlight, &t.ifHead, func(p **uop) { slotRef(s, t, p) })
		s.U64(&t.curILine)
		s.Bool(&t.imissPending)
		s.U64(&t.fetchBlockedUntil)
		s.U64(&t.warmedAt)
		s.U64(&t.finishedAt)
		s.U64(&t.squashes)
		s.U64(&t.loads)
		s.U64(&t.stores)
		s.U64(&t.imisses)
		s.U64(&t.gated)
	}

	if s.Loading() && s.Err() == nil {
		// Rebuild the wakeup state: re-enter the issue queue in dispatch
		// order. Only the order of stamps matters, so they restart. The
		// occupancy counts must fit the table and match the listed entries,
		// or a later dispatch would find no free entry.
		if c.intIQUsed > c.cfg.IntIQ || c.fpIQUsed > c.cfg.FPIQ {
			return fmt.Errorf("%w: issue queue holds %d int and %d FP entries, capacity %d and %d",
				snap.ErrCorrupt, c.intIQUsed, c.fpIQUsed, c.cfg.IntIQ, c.cfg.FPIQ)
		}
		c.resetIQ()
		fp := 0
		for _, w := range iq {
			if w.tid >= uint64(len(c.threads)) || w.slot >= uint64(len(c.threads[w.tid].rob)) {
				return fmt.Errorf("%w: waiting entry (%d, %d) out of range", snap.ErrCorrupt, w.tid, w.slot)
			}
			t := c.threads[w.tid]
			u := &t.rob[w.slot]
			if u.state != stWaiting || u.seq < t.headSeq || u.seq >= t.nextSeq || u.iq != 0 {
				return fmt.Errorf("%w: waiting entry (%d, %d) is not a live waiting uop", snap.ErrCorrupt, w.tid, w.slot)
			}
			if len(c.iqFree) == 0 {
				return fmt.Errorf("%w: more than %d waiting entries", snap.ErrCorrupt, len(c.iq))
			}
			if u.in.Kind == workload.FPOp {
				fp++
			}
			c.enqueue(t, u)
		}
		if fp != c.fpIQUsed || len(iq)-fp != c.intIQUsed {
			return fmt.Errorf("%w: %d int and %d FP waiting entries listed, occupancy %d and %d",
				snap.ErrCorrupt, len(iq)-fp, fp, c.intIQUsed, c.fpIQUsed)
		}
		// Every live waiting uop must hold an entry: a squash returns one's
		// occupancy, and an unlisted one would hand back an entry it never took.
		waiting := 0
		for _, t := range c.threads {
			for s := t.headSeq; s < t.nextSeq; s++ {
				if t.slot(s).state == stWaiting {
					waiting++
				}
			}
		}
		if waiting != len(iq) {
			return fmt.Errorf("%w: %d live waiting uops, %d listed in the issue queue", snap.ErrCorrupt, waiting, len(iq))
		}
	}
	return s.Err()
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
