package cache

// The cache hierarchy's snapshot walks (DESIGN §15): each Level walks its
// valid lines in recency order, MSHR file (including waiter references) and
// writeback buffer; the MemBackend walks its retry buffer and
// request-ID counter. References to pending completions are typed snap.Refs,
// resolved back to live objects by the core resolver when loading.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

const (
	sectionLevel   = 0x4C56454C // "LEVL"
	sectionBackend = 0x4D454D42 // "BMEM"
)

// SetSnapID names the level for snapshot references. The core assigns stable
// IDs at assembly (0=l1i, 1=l1d, 2=l2, 3=l3); levels outside a Simulator
// never snapshot, so their zero ID is unused.
func (l *Level) SetSnapID(id uint8) { l.snapID = id }

// SnapMeta walks an access's processor-side context. Exported for the CPU,
// whose committed-store buffer holds the same record.
func SnapMeta(c *snap.Codec, m *Meta) {
	c.Int(&m.Thread)
	c.Int(&m.State.ROBOccupancy)
	c.Int(&m.State.IQOccupancy)
}

// Snap walks the level's mutable state. The configuration is not in the
// format: a restore targets a level built from an identical Config (enforced
// upstream by the warmup-prefix fingerprint). Loading recreates the MSHRs
// from the pool and resolves their waiters through resolve, which must
// already cover the CPU and any level above this one — the core walks
// top-down.
func (l *Level) Snap(c *snap.Codec, resolve event.Resolver) error {
	c.Marker(sectionLevel)
	id := l.snapID
	if c.U8(&id); id != l.snapID {
		c.Fail(fmt.Errorf("%w: level snapshot for id %d, restoring into %d", snap.ErrCorrupt, id, l.snapID))
	}
	c.U64(&l.Stats.Accesses)
	c.U64(&l.Stats.Misses)
	c.U64(&l.Stats.Merged)
	c.U64(&l.Stats.Writebacks)
	c.U64(&l.Stats.MSHRFull)

	snap.Slice(c, &l.pendingWB, func(e *wbEntry) {
		c.U64(&e.addr)
		SnapMeta(c, &e.meta)
	})

	perfect := l.cfg.Perfect
	if c.Bool(&perfect); perfect != l.cfg.Perfect {
		c.Fail(fmt.Errorf("%w: snapshot perfect=%v, level perfect=%v", snap.ErrCorrupt, perfect, l.cfg.Perfect))
	}
	// The lines (a perfect level has none): a bitmap of the valid slab slots,
	// its length fixed by the geometry, then each valid line's word in slot
	// (so recency) order. An empty way costs its bit, so a frame and a restore
	// are sized by the lines the warmup touched. A load keeps what install
	// keeps: a set's valid ways first (its last way is the victim), no tag
	// twice, and no word wider than the level stores.
	slots := l.nsets * l.assoc
	valid := make([]uint64, (slots+63)/64)
	if c.Loading() {
		clear(l.lines)
	} else {
		for i := range slots {
			valid[i/64] |= uint64(*l.flags(i)&lineValid) << (i % 64)
		}
	}
	c.Words(valid)
	for wi, word := range valid {
		for ; word != 0 && c.Err() == nil; word &= word - 1 {
			i := uint64(wi*64 + bits.TrailingZeros64(word))
			if i >= slots {
				c.Fail(fmt.Errorf("%w: %s line bitmap marks slot %d of %d", snap.ErrCorrupt, l.cfg.Name, i, slots))
				break
			}
			w := l.word(i)
			c.U64(&w)
			var emptyAhead, tagAhead bool // among the ways before it in its set
			for j := i - i%l.assoc; j < i; j++ {
				o := l.word(j)
				emptyAhead = emptyAhead || o == 0
				tagAhead = tagAhead || o>>flagBits == w>>flagBits
			}
			switch {
			case w&lineValid == 0:
				c.Fail(fmt.Errorf("%w: %s line %d is listed but not valid (%#x)", snap.ErrCorrupt, l.cfg.Name, i, w))
			case w&^l.wmask != 0:
				c.Fail(fmt.Errorf("%w: %s line %d is wider than its %d-byte word (%#x)", snap.ErrCorrupt, l.cfg.Name, i, l.wb, w))
			case emptyAhead:
				c.Fail(fmt.Errorf("%w: %s line %d follows an empty way of its set", snap.ErrCorrupt, l.cfg.Name, i))
			case tagAhead:
				c.Fail(fmt.Errorf("%w: %s line %d repeats a tag of its set (%#x)", snap.ErrCorrupt, l.cfg.Name, i, w))
			default:
				l.setWord(i, w)
			}
		}
	}

	// The MSHR file by ascending line address, so that saving the same state
	// twice yields the same bytes. A miss's address must be a line address: a
	// bit past the address space would put its fill's tag into the next way's
	// bytes. Loading recreates each entry from the pool before its waiters are
	// read: the references to it — a lower level's waiter, an event — resolve
	// through the file.
	ms := l.mshrs
	if c.Loading() {
		for _, m := range ms {
			l.releaseMSHR(m)
		}
	} else {
		ms = slices.Clone(ms)
		slices.SortFunc(ms, func(a, b *mshr) int { return cmp.Compare(a.addr, b.addr) })
	}
	var prev *mshr
	snap.Slice(c, &ms, func(mp **mshr) {
		if c.Loading() {
			*mp = l.getMSHR()
		}
		m := *mp
		c.U64(&m.addr)
		if prev != nil && m.addr <= prev.addr {
			c.Fail(fmt.Errorf("%w: %s lists mshr %#x after %#x", snap.ErrCorrupt, l.cfg.Name, m.addr, prev.addr))
		} else if m.addr != l.lineAddr(m.addr) {
			c.Fail(fmt.Errorf("%w: %s mshr %#x is not a line address", snap.ErrCorrupt, l.cfg.Name, m.addr))
		}
		prev = m
		c.Bool(&m.dirty)
		c.Bool(&m.issued)
		SnapMeta(c, &m.meta)
		snap.Slice(c, &m.waiters, func(f *event.Filler) { event.Link(c, f, event.RoleFiller, resolve) })
	})
	if c.Loading() {
		l.mshrs = ms
	}
	return c.Err()
}

// ResolveRef maps a cache-kind reference back to this level's live object.
func (l *Level) ResolveRef(ref *snap.Ref) (any, error) {
	switch ref.Kind {
	case snap.KCacheMSHR:
		if len(ref.Args) != 2 {
			return nil, fmt.Errorf("%w: mshr ref needs 2 args", snap.ErrCorrupt)
		}
		m := l.mshrFor(ref.Args[1])
		if m == nil {
			return nil, fmt.Errorf("%w: no mshr for line %#x in %s", snap.ErrCorrupt, ref.Args[1], l.cfg.Name)
		}
		return m, nil
	case snap.KCacheWBRetry:
		return &l.wbretry, nil
	default:
		return nil, fmt.Errorf("%w: ref kind %d is not a cache kind", snap.ErrCorrupt, ref.Kind)
	}
}

// Snap walks the backend's ID counter and retry buffer. The buffered requests
// are references into the restore-time request memo (see ResolveRef), so
// every reference to one in-flight request — this buffer's, the controller's
// queue entry's — resolves to the same wrapper; the core calls FinishRestore
// once the whole machine is back.
func (b *MemBackend) Snap(c *snap.Codec, resolve event.Resolver) error {
	c.Marker(sectionBackend)
	c.U64(&b.nextID)
	snap.Slice(c, &b.pending, func(p **mem.Request) { event.Link(c, p, event.RoleHandler, resolve) })
	return c.Err()
}

// FinishRestore drops the restore-time request memo.
func (b *MemBackend) FinishRestore() { b.restoreReqs = nil }

// ResolveRef maps backend-kind references to live objects: the backend
// itself (its retry timer) or an in-flight request, rebuilt on first
// reference and memoized by ID so aliased references share one wrapper.
func (b *MemBackend) ResolveRef(ref *snap.Ref, resolve event.Resolver) (any, error) {
	switch ref.Kind {
	case snap.KMemBackend:
		return b, nil
	case snap.KMemBackendReq:
		if len(ref.Args) != 7 {
			return nil, fmt.Errorf("%w: request ref needs 7 args", snap.ErrCorrupt)
		}
		id := ref.Args[0]
		if b.restoreReqs == nil {
			b.restoreReqs = make(map[uint64]*pooledReq)
		}
		if p, ok := b.restoreReqs[id]; ok {
			return &p.req, nil
		}
		p := b.getReq()
		p.req.ID = id
		p.req.Addr = ref.Args[1]
		p.req.Kind = mem.Kind(ref.Args[2])
		p.req.Thread = int(snap.Unzig(ref.Args[3]))
		p.req.Arrive = ref.Args[4]
		p.req.State = mem.ThreadState{
			ROBOccupancy: int(snap.Unzig(ref.Args[5])),
			IQOccupancy:  int(snap.Unzig(ref.Args[6])),
		}
		p.done = nil
		if ref.Inner != nil {
			f, err := event.ResolveAs[event.Filler](resolve, ref.Inner, event.RoleFiller)
			if err != nil {
				return nil, fmt.Errorf("request %d completion: %w", id, err)
			}
			p.done = f
		}
		b.restoreReqs[id] = p
		return &p.req, nil
	default:
		return nil, fmt.Errorf("%w: ref kind %d is not a backend kind", snap.ErrCorrupt, ref.Kind)
	}
}
