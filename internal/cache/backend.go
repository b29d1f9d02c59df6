package cache

import (
	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/snap"
)

// MemBackend terminates the cache hierarchy at a DRAM memory controller,
// translating line fills and writebacks into mem.Requests. It absorbs
// controller backpressure with a small retry buffer so a momentarily full
// channel queue does not wedge an L3 MSHR.
type MemBackend struct {
	q      *event.Queue
	ctrl   mem.Controller
	nextID uint64

	// pending holds requests the controller refused, retried on a timer.
	pending []*mem.Request

	// pendingCap bounds the retry buffer; beyond it, backpressure is
	// propagated to the caller.
	pendingCap int

	// freeReqs recycles request wrappers; the controller hands a request
	// back (OnComplete) strictly after its last read of it, so a completed
	// request can be reissued immediately.
	freeReqs []*pooledReq

	// restoreReqs memoizes in-flight request wrappers by ID while a snapshot
	// restore is resolving references (see ResolveRef); nil otherwise.
	restoreReqs map[uint64]*pooledReq
}

var _ Backend = (*MemBackend)(nil)
var _ event.Handler = (*MemBackend)(nil)

// pooledReq is a recyclable mem.Request. Its OnComplete is bound once, to
// complete below, which returns the wrapper to the backend's free list and
// then runs the caller's fill carrier — so per-access traffic reuses both
// the request struct and its completion closure. The request's Src field
// points back at the wrapper, letting the controller's snapshot name the
// in-flight request it only knows as a *mem.Request.
type pooledReq struct {
	b    *MemBackend
	req  mem.Request
	done event.Filler // caller's completion for this use; nil for writes
}

func (p *pooledReq) complete(at uint64) {
	done := p.done
	p.done = nil
	p.b.freeReqs = append(p.b.freeReqs, p)
	if done != nil {
		done.OnFill(at)
	}
}

// SnapRef implements event.RefMaker: the request's scalar fields plus, as
// the nested ref, its completion carrier. A completion that is itself
// unserializable (a test's FillFunc) nests as KNone, which resolution
// rejects with a typed error.
func (p *pooledReq) SnapRef() snap.Ref {
	ref := snap.Ref{Kind: snap.KMemBackendReq, Args: []uint64{
		p.req.ID, p.req.Addr, uint64(p.req.Kind), snap.Zig(int64(p.req.Thread)),
		snap.BoolArg(p.req.Critical), p.req.Arrive,
		snap.Zig(int64(p.req.State.ROBOccupancy)),
		snap.Zig(int64(p.req.State.IQOccupancy)),
	}}
	if p.done != nil {
		inner := event.RefOf(p.done)
		ref.Inner = &inner
	}
	return ref
}

func (b *MemBackend) getReq() *pooledReq {
	if n := len(b.freeReqs); n > 0 {
		p := b.freeReqs[n-1]
		b.freeReqs[n-1] = nil
		b.freeReqs = b.freeReqs[:n-1]
		return p
	}
	p := &pooledReq{b: b}
	p.req.OnComplete = p.complete
	p.req.Src = p
	return p
}

// NewMemBackend wraps ctrl as a cache Backend.
func NewMemBackend(q *event.Queue, ctrl mem.Controller) *MemBackend {
	return &MemBackend{q: q, ctrl: ctrl, pendingCap: 32}
}

// ReadLine implements Backend.
func (b *MemBackend) ReadLine(now uint64, addr uint64, meta Meta, done event.Filler) bool {
	p := b.getReq()
	p.req.ID = b.id()
	p.req.Addr = addr
	p.req.Kind = mem.Read
	p.req.Thread = meta.Thread
	p.req.Critical = meta.Critical
	p.req.State = meta.State
	p.done = done
	return b.submit(now, p)
}

// WriteLine implements Backend.
func (b *MemBackend) WriteLine(now uint64, addr uint64, meta Meta) bool {
	p := b.getReq()
	p.req.ID = b.id()
	p.req.Addr = addr
	p.req.Kind = mem.Write
	p.req.Thread = meta.Thread
	p.req.Critical = false
	p.req.State = meta.State
	p.done = nil
	return b.submit(now, p)
}

func (b *MemBackend) id() uint64 {
	b.nextID++
	return b.nextID
}

func (b *MemBackend) submit(now uint64, p *pooledReq) bool {
	if len(b.pending) > 0 || !b.ctrl.Enqueue(now, &p.req) {
		if len(b.pending) >= b.pendingCap {
			p.done = nil
			b.freeReqs = append(b.freeReqs, p)
			return false
		}
		b.pending = append(b.pending, &p.req)
		if len(b.pending) == 1 {
			b.q.ScheduleHandler(now+retryGap, b)
		}
	}
	return true
}

// OnEvent is the retry-buffer drain timer: it re-offers refused requests to
// the controller in order, compacting the buffer in place.
func (b *MemBackend) OnEvent(now uint64) {
	n := 0
	for n < len(b.pending) && b.ctrl.Enqueue(now, b.pending[n]) {
		n++
	}
	if n > 0 {
		m := copy(b.pending, b.pending[n:])
		for i := m; i < len(b.pending); i++ {
			b.pending[i] = nil
		}
		b.pending = b.pending[:m]
	}
	if len(b.pending) > 0 {
		b.q.ScheduleHandler(now+retryGap, b)
	}
}

// SnapRef implements event.RefMaker (the retry-drain timer).
func (b *MemBackend) SnapRef() snap.Ref {
	return snap.Ref{Kind: snap.KMemBackend}
}

// FixedLatency is a Backend with a constant service time and unlimited
// bandwidth. It terminates hierarchies in unit tests and models the
// "infinitely large" next level in CPI-breakdown runs.
type FixedLatency struct {
	q       *event.Queue
	Latency uint64

	Reads  uint64
	Writes uint64
}

var _ Backend = (*FixedLatency)(nil)

// NewFixedLatency builds the backend.
func NewFixedLatency(q *event.Queue, latency uint64) *FixedLatency {
	return &FixedLatency{q: q, Latency: latency}
}

// ReadLine implements Backend.
func (f *FixedLatency) ReadLine(now uint64, addr uint64, meta Meta, done event.Filler) bool {
	f.Reads++
	if done != nil {
		f.q.ScheduleFiller(now+f.Latency, done)
	}
	return true
}

// WriteLine implements Backend.
func (f *FixedLatency) WriteLine(now uint64, addr uint64, meta Meta) bool {
	f.Writes++
	return true
}
