// Package mem defines the request types exchanged between the cache
// hierarchy and the DRAM memory controller, including the thread-state
// information that the paper's thread-aware scheduling schemes piggyback on
// each request.
package mem

import (
	"fmt"

	"smtdram/internal/event"
	"smtdram/internal/snap"
)

// Kind distinguishes memory-controller request types.
type Kind uint8

const (
	// Read is a cache-line fill (demand miss from the L3).
	Read Kind = iota
	// Write is a dirty-line writeback from the L3.
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// InvalidThread marks requests, such as writebacks, that are not attributed
// to any hardware thread for scheduling purposes.
const InvalidThread = -1

// ThreadState is the processor-side state snapshot piggybacked on a request
// when the cache miss is sent to the memory controller. The paper notes the
// controller's view may be slightly stale; the schemes are heuristic and
// tolerate that, so a snapshot at miss time is exactly what is modeled.
type ThreadState struct {
	// ROBOccupancy is the number of reorder-buffer entries the thread held.
	ROBOccupancy int
	// IQOccupancy is the number of integer issue-queue entries the thread
	// held (the paper uses the integer queue: it has the higher occupancy).
	IQOccupancy int
}

// Request is one 64-byte line transfer requested from the DRAM system.
type Request struct {
	// ID is a simulator-unique identifier, assigned by the issuer.
	ID uint64
	// Addr is the physical byte address of the line.
	Addr uint64
	// Kind says whether this is a line fill or a writeback.
	Kind Kind
	// Thread is the hardware-thread that caused the request, or
	// InvalidThread for writebacks.
	Thread int
	// Critical marks demand requests the processor is stalled on.
	Critical bool
	// Arrive is the cycle the request entered the memory controller queue;
	// the controller fills it in.
	Arrive uint64
	// State is the piggybacked thread-state snapshot (see ThreadState).
	State ThreadState
	// OnComplete, if non-nil, fires when the last data beat of the line has
	// transferred. For writes this fires when the write has been issued to
	// the DRAM; nobody usually waits on it.
	OnComplete func(now uint64)
	// Src, when set by the issuer, points back at the issuer-owned wrapper
	// that carries this request. It is opaque to the controller; the snapshot
	// codec uses it to name in-flight requests the controller only holds as
	// *Request.
	Src any
}

// SnapRef implements event.RefMaker: a request is named by the issuer-owned
// wrapper behind it (KNone when the issuer set none, which neither saves nor
// resolves).
func (r *Request) SnapRef() snap.Ref { return event.RefOf(r.Src) }

// IsRead reports whether the request is a line fill.
func (r *Request) IsRead() bool { return r.Kind == Read }

// Controller is the interface the cache hierarchy uses to hand requests to
// the DRAM subsystem.
type Controller interface {
	// Enqueue accepts a request, returning false when the controller queue
	// for the request's channel is full; the caller must retry later.
	Enqueue(now uint64, r *Request) bool
}
