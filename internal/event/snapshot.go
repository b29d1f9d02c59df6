package event

import (
	"fmt"
	"sort"

	"smtdram/internal/snap"
)

// RefMaker is implemented by every object that can sit in the queue (as a
// Handler or a Filler) and survive a snapshot: SnapRef returns the typed
// descriptor the core resolver maps back to the equivalent live object
// inside a freshly built simulator.
type RefMaker interface {
	SnapRef() snap.Ref
}

// Roles distinguish which interface a restored object is scheduled through,
// so dual-role objects (an MSHR is both its retry Handler and its data
// Filler) round-trip unambiguously.
const (
	RoleHandler uint8 = 0
	RoleFiller  uint8 = 1
)

// Resolver maps a decoded reference (and the role it was recorded in) back
// to the equivalent live object. The core simulator owns the production
// implementation, dispatching on ref.Kind to the component that can rebuild
// or look up the object.
type Resolver func(ref *snap.Ref, role uint8) (any, error)

// RefOf names obj for a snapshot: its SnapRef, or — for an object the codec
// cannot name, such as a test's closure wrapped in FillFunc — a KNone
// reference, which Link refuses to save and ResolveAs to resolve.
func RefOf(obj any) snap.Ref {
	if rm, ok := obj.(RefMaker); ok {
		return rm.SnapRef()
	}
	return snap.Ref{Kind: snap.KNone}
}

// ResolveAs resolves ref in role and asserts the live object is a T: the one
// place a decoded reference turns back into a typed pointer.
func ResolveAs[T any](resolve Resolver, ref *snap.Ref, role uint8) (T, error) {
	var zero T
	switch {
	case ref == nil:
		return zero, fmt.Errorf("%w: missing reference", snap.ErrCorrupt)
	case ref.Kind == snap.KNone:
		return zero, fmt.Errorf("%w: reference to an object the codec could not name", snap.ErrUnsupported)
	}
	obj, err := resolve(ref, role)
	if err != nil {
		return zero, err
	}
	v, ok := obj.(T)
	if !ok {
		return zero, fmt.Errorf("%w: ref kind %d resolved to %T, which its slot cannot hold", snap.ErrCorrupt, ref.Kind, obj)
	}
	return v, nil
}

// Link walks one slot that holds a live object by reference: saving writes
// the object's RefOf, loading resolves the decoded reference in role and
// stores the result in *p.
func Link[T any](c *snap.Codec, p *T, role uint8, resolve Resolver) {
	var ref *snap.Ref
	if !c.Loading() {
		r := RefOf(*p)
		if r.Kind == snap.KNone {
			c.Fail(fmt.Errorf("%w: %T has no SnapRef", snap.ErrUnsupported, *p))
		}
		ref = &r
	}
	c.Ref(&ref)
	if c.Loading() && c.Err() == nil {
		v, err := ResolveAs[T](resolve, ref, role)
		if err != nil {
			c.Fail(err)
			return
		}
		*p = v
	}
}

const sectionQueue = 0x51455645 // "EVEQ"

// Snap walks the queue: the drain cursor and counters, then every pending
// event — its exact (cycle, seq) pair, the role it was scheduled in and its
// object's reference — in global (cycle, seq) order. Loading resolves each
// reference through resolve (a Handler for RoleHandler items, a Filler for
// RoleFiller ones) and re-places the events verbatim, so the next drain fires
// in precisely the order the saved queue would have. Events scheduled as raw
// closures (Schedule) have no name to save and fail with ErrUnsupported; all
// production scheduling goes through Handler/Filler objects implementing
// RefMaker.
func (q *Queue) Snap(c *snap.Codec, resolve Resolver) error {
	var items []item
	if c.Loading() {
		q.Reset()
	} else {
		items = q.pending()
	}
	c.Marker(sectionQueue)
	c.U64(&q.base)
	c.U64(&q.seq)
	c.U64(&q.fired)
	c.U64(&q.firedAt)
	c.U64(&q.past)
	snap.U64As(c, &q.maxLen)
	snap.Slice(c, &items, func(it *item) {
		c.U64(&it.at)
		c.U64(&it.seq)
		role := RoleHandler
		if it.f != nil {
			role = RoleFiller
		} else if it.h == nil && !c.Loading() {
			c.Fail(fmt.Errorf("%w: raw closure event at cycle %d", snap.ErrUnsupported, it.at))
		}
		c.U8(&role)
		switch role {
		case RoleHandler:
			Link(c, &it.h, role, resolve)
		case RoleFiller:
			Link(c, &it.f, role, resolve)
		default:
			c.Fail(fmt.Errorf("%w: event role %d", snap.ErrCorrupt, role))
		}
	})
	if c.Loading() && c.Err() == nil {
		// place bypasses push's sequence assignment and hazard accounting, so
		// the counters decoded above stand.
		for _, it := range items {
			q.place(it)
		}
	}
	return c.Err()
}

// pending lists every pending event in global (cycle, seq) order.
func (q *Queue) pending() []item {
	items := make([]item, 0, q.Len())
	for s := range q.ring {
		items = append(items, q.ring[s]...)
	}
	items = append(items, q.far...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].at != items[j].at {
			return items[i].at < items[j].at
		}
		return items[i].seq < items[j].seq
	})
	return items
}

// place inserts a restored item with its original seq.
func (q *Queue) place(it item) {
	if it.at >= q.base && it.at < q.base+ringWindow {
		s := int(it.at & ringMask)
		if q.ring[s] == nil {
			q.initRing()
		}
		q.ring[s] = append(q.ring[s], it)
		q.occ[s>>6] |= 1 << uint(s&63)
		q.ringN++
	} else {
		q.far = append(q.far, it)
		q.up(len(q.far) - 1)
	}
}
