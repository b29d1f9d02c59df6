package memctrl

// The memory controller's snapshot walk (DESIGN §15). Queued entries
// serialize as their request's reference (the request wrapper lives in the
// cache backend; entry.loc is re-decoded through the mapper on restore);
// dispatched entries sit in the event queue as their own completion handlers
// and round-trip as KMemEntry references. Fault-injection runs arm backoff
// retries whose mid-flight state the codec does not model, so controllers
// with an injector attached refuse to snapshot, and the frame has no name or
// slot for anything only they can hold.

import (
	"fmt"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

const sectionCtrl = 0x4D435452 // "MCTR"

// SnapRef implements event.RefMaker for a dispatched entry: the channel it is
// in flight on, its scheduling identity, and (nested) the request it carries.
func (e *entry) SnapRef() snap.Ref {
	ref := snap.Ref{Kind: snap.KMemEntry, Args: []uint64{
		uint64(e.loc.Channel), e.seq, uint64(e.queuedBehind),
	}}
	inner := e.req.SnapRef()
	ref.Inner = &inner
	return ref
}

// SnapRef implements event.RefMaker for the bank-ready wake-up.
func (r *retryEvent) SnapRef() snap.Ref {
	ch := uint64(0)
	for i, cc := range r.c.channels {
		if cc == r.cc {
			ch = uint64(i)
		}
	}
	return snap.Ref{Kind: snap.KMemRetry, Args: []uint64{ch}}
}

// Snap walks the controller's mutable state: scheduling sequence, concurrency
// accounting, stats, and per channel the DRAM device state, the in-flight
// window, the armed retry, and the queued entries. A queued entry is its
// scheduling identity plus its request's reference, which loading resolves
// through resolve (reaching the cache backend's request pool); its location
// is re-decoded through the mapper.
func (c *Controller) Snap(s *snap.Codec, resolve event.Resolver) error {
	if c.inj != nil {
		return fmt.Errorf("%w: controller has a fault injector attached", snap.ErrUnsupported)
	}
	s.Marker(sectionCtrl)
	s.U64(&c.seq)
	s.U64(&c.lastChange)
	s.Int(&c.totalOut)
	s.Int(&c.threadsBusy)
	s.Fixed(len(c.outstanding), "controller threads")
	for i := range c.outstanding {
		s.Int(&c.outstanding[i])
	}
	s.U64(&c.Stats.Reads)
	s.U64(&c.Stats.Writes)
	s.U64(&c.Stats.Rejected)
	s.U64(&c.Stats.ReadLatencySum)
	s.U64s(c.Stats.ThreadReads[:])
	s.U64s(c.Stats.ThreadReadLatencySum[:])
	s.U64s(c.Stats.OutstandingHist[:])
	s.U64s(c.Stats.ThreadSpreadHist[:])

	s.Fixed(len(c.channels), "channels")
	for _, cc := range c.channels {
		if err := cc.dev.Snap(s); err != nil {
			return err
		}
		s.Int(&cc.inFlight)
		s.Bool(&cc.retryArmed)
		snap.Slice(s, &cc.queue, func(p **entry) {
			if s.Loading() {
				*p = c.getEntry()
			}
			e := *p
			s.U64(&e.seq)
			s.Int(&e.queuedBehind)
			event.Link(s, &e.req, event.RoleHandler, resolve)
			if s.Loading() && s.Err() == nil {
				e.loc = c.cfg.Mapper.Map(e.req.Addr)
			}
		})
	}
	return s.Err()
}

// ResolveRef maps controller-kind references back to live objects: dispatched
// entries are rebuilt from the pool with their request resolved through
// resolve; bank-ready retries resolve to the pre-bound per-channel instances.
func (c *Controller) ResolveRef(ref *snap.Ref, resolve event.Resolver) (any, error) {
	switch ref.Kind {
	case snap.KMemEntry:
		if len(ref.Args) != 3 {
			return nil, fmt.Errorf("%w: entry ref needs 3 args, got %d", snap.ErrCorrupt, len(ref.Args))
		}
		ch := ref.Args[0]
		if ch >= uint64(len(c.channels)) {
			return nil, fmt.Errorf("%w: entry ref channel %d out of range", snap.ErrCorrupt, ch)
		}
		req, err := event.ResolveAs[*mem.Request](resolve, ref.Inner, event.RoleHandler)
		if err != nil {
			return nil, err
		}
		e := c.getEntry()
		e.req, e.loc = req, c.cfg.Mapper.Map(req.Addr)
		if e.loc.Channel != int(ch) {
			return nil, fmt.Errorf("%w: entry ref channel %d, mapper says %d", snap.ErrCorrupt, ch, e.loc.Channel)
		}
		e.seq, e.queuedBehind = ref.Args[1], int(ref.Args[2])
		e.cc = c.channels[ch]
		return e, nil
	case snap.KMemRetry:
		if len(ref.Args) != 1 || ref.Args[0] >= uint64(len(c.channels)) {
			return nil, fmt.Errorf("%w: retry ref channel out of range", snap.ErrCorrupt)
		}
		return &c.channels[ref.Args[0]].retry, nil
	default:
		return nil, fmt.Errorf("%w: ref kind %d is not a memctrl kind", snap.ErrCorrupt, ref.Kind)
	}
}
