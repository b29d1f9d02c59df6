// Package snap is the simulator's snapshot codec: a versioned, CRC-framed
// binary format shared by every engine package that serializes state
// (internal/event, internal/cache, internal/cpu, internal/memctrl,
// internal/dram, internal/workload, and the core assembler that frames them
// all into one checkpoint).
//
// The format mirrors the durability discipline of internal/store: a 4-byte
// magic, a 1-byte version, a length-bounded payload, and a trailing CRC-32C
// (Castagnoli) over everything before it. Decoding validates the frame before
// looking at a single payload byte, and every failure is a typed error
// (ErrTruncated, ErrCorrupt, ErrVersion) so callers can distinguish "not a
// snapshot" from "a damaged one" — truncated or bit-flipped frames never
// decode into garbage state.
//
// Within the payload, integers are unsigned varints (zigzag for signed),
// byte strings are length-prefixed, and section markers let decoders fail
// fast on structural drift. Encoding the same state twice yields identical
// bytes (maps are emitted in sorted key order by their owners), which is what
// makes content-addressed checkpoint storage and the encode→decode→encode
// golden tests possible.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed decode failures. Errors returned by the Reader wrap one of these, so
// errors.Is classifies any failure.
var (
	// ErrTruncated: the frame or a field ends before its declared length.
	ErrTruncated = errors.New("snap: truncated")
	// ErrCorrupt: checksum mismatch, bad magic, a bounds violation, or a
	// structural marker that does not match the expected schema.
	ErrCorrupt = errors.New("snap: corrupt")
	// ErrVersion: the frame is well-formed but written by an incompatible
	// codec version; callers treat it as a cache miss, not an error.
	ErrVersion = errors.New("snap: version mismatch")
	// ErrUnsupported: the live state contains something the codec cannot
	// represent (a raw closure in the event queue, an attached observer, a
	// fault plan). Snapshot callers fall back to an uncheckpointed run.
	ErrUnsupported = errors.New("snap: state not serializable")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// maxFieldLen bounds any single length-prefixed field, mirroring
	// internal/store: a corrupt length can never drive a huge allocation.
	maxFieldLen = 64 << 20
	// maxRefDepth bounds Ref nesting (an entry holds a request holds a fill;
	// anything deeper is structural corruption).
	maxRefDepth = 4
	// maxRefArgs bounds a Ref's argument count.
	maxRefArgs = 32
)

// ---------------------------------------------------------------- Writer

// Writer builds a snapshot payload. The zero value is ready to use; Frame
// seals the payload into a checksummed frame.
type Writer struct {
	buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Marker appends a section marker the Reader can assert with Expect.
func (w *Writer) Marker(m uint64) { w.U64(m) }

// Ref appends a reference descriptor (nil encodes as an absent ref).
func (w *Writer) Ref(r *Ref) {
	if r == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.U8(r.Kind)
	w.U64(uint64(len(r.Args)))
	for _, a := range r.Args {
		w.U64(a)
	}
	w.Ref(r.Inner)
}

// Len reports the current payload size in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Frame seals the payload: magic (4 bytes) | version | payload | CRC-32C
// (little-endian) over everything before it. The Writer stays usable, but
// callers conventionally Frame exactly once.
func (w *Writer) Frame(magic string, version uint8) []byte {
	if len(magic) != 4 {
		panic("snap: frame magic must be 4 bytes")
	}
	out := make([]byte, 0, 4+1+len(w.buf)+4)
	out = append(out, magic...)
	out = append(out, version)
	out = append(out, w.buf...)
	sum := crc32.Checksum(out, castagnoli)
	return binary.LittleEndian.AppendUint32(append(out, 0, 0, 0, 0)[:len(out)], sum)
}

// ---------------------------------------------------------------- Reader

// Reader decodes a snapshot payload. Errors are sticky: after the first
// failure every subsequent read returns the zero value and Err reports the
// failure, so decode loops need only one check at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates frame's magic, version, and checksum, returning a
// Reader over the payload. Mirrors internal/store's decode discipline: the
// checksum is verified before any payload byte is interpreted.
func NewReader(frame []byte, magic string, version uint8) (*Reader, error) {
	if len(magic) != 4 {
		panic("snap: frame magic must be 4 bytes")
	}
	if len(frame) < 4+1+4 {
		return nil, fmt.Errorf("%w: frame %d bytes, need at least %d", ErrTruncated, len(frame), 4+1+4)
	}
	body, tail := frame[:len(frame)-4], frame[len(frame)-4:]
	if want, got := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); want != got {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	if string(body[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, body[:4], magic)
	}
	if body[4] != version {
		return nil, fmt.Errorf("%w: version %d (reader speaks %d)", ErrVersion, body[4], version)
	}
	return &Reader{buf: body[5:]}, nil
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(fmt.Errorf("%w: u8 at offset %d", ErrTruncated, r.off))
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: uvarint at offset %d", ErrTruncated, r.off))
		return 0
	}
	r.off += n
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: varint at offset %d", ErrTruncated, r.off))
		return 0
	}
	r.off += n
	return v
}

// Bool reads a 0/1 byte; any other value is corruption.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, v))
		return false
	}
}

// Bytes reads a length-prefixed byte string (always a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.fail(fmt.Errorf("%w: field length %d exceeds limit %d", ErrCorrupt, n, maxFieldLen))
		return nil
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail(fmt.Errorf("%w: field needs %d bytes, %d remain", ErrTruncated, n, len(r.buf)-r.off))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Expect reads a section marker and fails with ErrCorrupt on mismatch.
func (r *Reader) Expect(marker uint64) {
	if got := r.U64(); r.err == nil && got != marker {
		r.fail(fmt.Errorf("%w: section marker %#x (want %#x)", ErrCorrupt, got, marker))
	}
}

// Remaining reports how many payload bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done fails with ErrCorrupt if payload bytes remain (no trailing garbage,
// mirroring internal/store's decode).
func (r *Reader) Done() {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.buf)-r.off))
	}
}

// Ref reads a reference descriptor (nil when absent).
func (r *Reader) Ref() *Ref { return r.refDepth(0) }

func (r *Reader) refDepth(depth int) *Ref {
	if !r.Bool() || r.err != nil {
		return nil
	}
	if depth >= maxRefDepth {
		r.fail(fmt.Errorf("%w: ref nesting beyond %d", ErrCorrupt, maxRefDepth))
		return nil
	}
	ref := &Ref{Kind: r.U8()}
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxRefArgs {
		r.fail(fmt.Errorf("%w: ref arg count %d exceeds %d", ErrCorrupt, n, maxRefArgs))
		return nil
	}
	ref.Args = make([]uint64, n)
	for i := range ref.Args {
		ref.Args[i] = r.U64()
	}
	ref.Inner = r.refDepth(depth + 1)
	if r.err != nil {
		return nil
	}
	return ref
}

// ---------------------------------------------------------------- Ref

// Ref is a serializable description of a live object scheduled in the event
// queue or parked in a component's wait list — the typed replacement for the
// closures the engine used to capture. Kind selects a reconstruction recipe,
// Args carries its scalar parameters (signed values zigzag-encoded by the
// producer via Zig/Unzig), and Inner chains a nested continuation (a memory
// request's completion fill, for example). The core resolver maps a decoded
// Ref back to a live object inside a freshly built simulator.
type Ref struct {
	Kind  uint8
	Args  []uint64
	Inner *Ref
}

// Ref kinds. The space is owned here so producer packages (cpu, cache,
// memctrl) never collide and the core resolver can dispatch without importing
// their internals.
const (
	// KNone marks an absent continuation.
	KNone uint8 = iota
	// KCPULoadFill is a load-miss completion: args tid, seq, epoch.
	KCPULoadFill
	// KCPUIFill is an instruction-fetch completion: args tid, line, epoch.
	KCPUIFill
	// KCPUBranch is a pending branch resolution: args tid, seq, epoch.
	KCPUBranch
	// KCacheMSHR is a cache level's MSHR, in either role (issue-retry
	// handler or fill continuation): args levelID, addr.
	KCacheMSHR
	// KCacheWBRetry is a level's writeback drain handler: args levelID.
	KCacheWBRetry
	// KMemBackend is the memory backend's pending-retry drain handler.
	KMemBackend
	// KMemBackendReq is a pooled memory request: args id, addr, kind,
	// zig(thread), arrive, then the 2-word thread state; Inner is
	// the completion fill.
	KMemBackendReq
	// KMemEntry is a controller queue entry: args channel, seq, queuedBehind;
	// Inner is the KMemBackendReq it carries.
	KMemEntry
	// KMemRetry is a channel's retry-wake handler: args channel.
	KMemRetry
)

// Zig maps a signed int into the uint64 Ref-arg space.
func Zig(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// Unzig inverts Zig.
func Unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
