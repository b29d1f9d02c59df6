package cache

// The cache hierarchy's snapshot walks (DESIGN §15): each Level walks its
// valid lines, LRU clock, MSHR file (including waiter references), writeback
// buffer, and prefetch state; the MemBackend walks its retry buffer and
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
	c.Bool(&m.Critical)
	c.Int(&m.State.ROBOccupancy)
	c.Int(&m.State.IQOccupancy)
}

// metaArgs and metaFromArgs are the same record in the uint64 Ref-arg space
// (a scheduled prefetch issue carries its Meta in its reference).
func metaArgs(m Meta) []uint64 {
	return []uint64{
		snap.Zig(int64(m.Thread)), snap.BoolArg(m.Critical),
		snap.Zig(int64(m.State.ROBOccupancy)),
		snap.Zig(int64(m.State.IQOccupancy)),
	}
}

func metaFromArgs(a []uint64) (Meta, error) {
	if len(a) != 4 {
		return Meta{}, fmt.Errorf("%w: meta needs 4 args, got %d", snap.ErrCorrupt, len(a))
	}
	return Meta{
		Thread:   int(snap.Unzig(a[0])),
		Critical: a[1] != 0,
		State: mem.ThreadState{
			ROBOccupancy: int(snap.Unzig(a[2])),
			IQOccupancy:  int(snap.Unzig(a[3])),
		},
	}, nil
}

// sortedKeys lists m's keys in ascending order: a set is walked sorted, so
// saving the same state twice yields the same bytes.
func sortedKeys(m map[uint64]struct{}) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
	c.U64(&l.tick)
	c.U64(&l.Stats.Accesses)
	c.U64(&l.Stats.Misses)
	c.U64(&l.Stats.Merged)
	c.U64(&l.Stats.Writebacks)
	c.U64(&l.Stats.MSHRFull)
	c.U64(&l.Prefetch.Issued)
	c.U64(&l.Prefetch.Useful)
	c.U64(&l.Prefetch.Late)
	c.U64(&l.Prefetch.Dropped)

	snap.Slice(c, &l.pendingWB, func(e *wbEntry) {
		c.U64(&e.addr)
		SnapMeta(c, &e.meta)
	})

	snap.U64As(c, &l.pfInFlight)
	pf := sortedKeys(l.pfPending)
	snap.Slice(c, &pf, c.U64)
	if c.Loading() {
		clear(l.pfPending)
		for _, la := range pf {
			l.pfPending[la] = struct{}{}
		}
	}

	perfect := l.cfg.Perfect
	if c.Bool(&perfect); perfect != l.cfg.Perfect {
		c.Fail(fmt.Errorf("%w: snapshot perfect=%v, level perfect=%v", snap.ErrCorrupt, perfect, l.cfg.Perfect))
	}
	// The lines (a perfect level has none): a bitmap of the valid slab slots,
	// its length fixed by the geometry, then each valid line's two words in
	// slot order. An empty way costs its bit, so a frame and a restore are
	// sized by the lines the warmup touched, not by the capacity.
	valid := make([]uint64, (len(l.lines)+63)/64)
	if c.Loading() {
		clear(l.lines)
	} else {
		for i := range l.lines {
			valid[i/64] |= (l.lines[i].w & lineValid) << (i % 64)
		}
	}
	c.Words(valid)
	for wi, word := range valid {
		for ; word != 0 && c.Err() == nil; word &= word - 1 {
			i := wi*64 + bits.TrailingZeros64(word)
			if i >= len(l.lines) {
				c.Fail(fmt.Errorf("%w: %s line bitmap marks slot %d of %d", snap.ErrCorrupt, l.cfg.Name, i, len(l.lines)))
				break
			}
			ln := &l.lines[i]
			c.U64(&ln.w)
			c.U64(&ln.used)
			if ln.w&lineValid == 0 {
				c.Fail(fmt.Errorf("%w: %s line %d is listed but not valid (%#x)", snap.ErrCorrupt, l.cfg.Name, i, ln.w))
			}
		}
	}

	// The MSHR file by ascending line address, so that saving the same state
	// twice yields the same bytes. Loading recreates each entry from the pool
	// before its waiters are read: the references to it — a lower level's
	// waiter, an event — resolve through the file.
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
	case snap.KCachePfIssue:
		if len(ref.Args) != 7 {
			return nil, fmt.Errorf("%w: prefetch-issue ref needs 7 args", snap.ErrCorrupt)
		}
		m, err := metaFromArgs(ref.Args[2:])
		if err != nil {
			return nil, err
		}
		return &pfIssue{l: l, la: ref.Args[1], meta: m}, nil
	case snap.KCachePfFill:
		if len(ref.Args) != 2 {
			return nil, fmt.Errorf("%w: prefetch-fill ref needs 2 args", snap.ErrCorrupt)
		}
		return &pfFill{l: l, la: ref.Args[1]}, nil
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
		if len(ref.Args) != 8 {
			return nil, fmt.Errorf("%w: request ref needs 8 args", snap.ErrCorrupt)
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
		p.req.Critical = ref.Args[4] != 0
		p.req.Arrive = ref.Args[5]
		p.req.State = mem.ThreadState{
			ROBOccupancy: int(snap.Unzig(ref.Args[6])),
			IQOccupancy:  int(snap.Unzig(ref.Args[7])),
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
