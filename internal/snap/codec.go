package snap

import (
	"encoding/binary"
	"fmt"
)

// Codec walks a component's state in one direction or the other: built by
// Saving it writes every field it is shown, built by Loading it assigns every
// field from the frame. A serializing type therefore states its format once —
// one Snap method listing its fields in wire order — instead of a save body
// and a load body that a human keeps equal. The encodings are the Writer's
// and Reader's, byte for byte.
//
// Failures are sticky, like the Reader's: after the first one a loading walk
// assigns zero values and counts of zero, so a walk needs no check between
// fields — only before it uses a decoded value (an index, a reference to
// resolve), and once at the end, where Snap returns Err.
type Codec struct {
	w   *Writer
	r   *Reader
	err error // first failure of a saving walk; a loading walk's is the Reader's
}

// Saving returns a Codec that writes the fields it walks into w.
func Saving(w *Writer) *Codec { return &Codec{w: w} }

// Loading returns a Codec that assigns the fields it walks from r.
func Loading(r *Reader) *Codec { return &Codec{r: r} }

// Loading reports the direction. It gates the steps only a load takes:
// validating what was decoded, returning objects to their pools, rebuilding
// derived state.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the walk's first failure, or nil.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.err
}

// Fail makes err the walk's outcome unless an earlier failure already is.
func (c *Codec) Fail(err error) {
	if c.r != nil {
		c.r.fail(err)
	} else if c.err == nil {
		c.err = err
	}
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

// U64 walks an unsigned varint.
func (c *Codec) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// I64 walks a zigzag-encoded signed varint.
func (c *Codec) I64(p *int64) {
	if c.r != nil {
		*p = c.r.I64()
	} else {
		c.w.I64(*p)
	}
}

// Int walks an int as a signed varint.
func (c *Codec) Int(p *int) { I64As(c, p) }

// Bool walks a 0/1 byte.
func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// U64s walks every word of an array whose length configuration fixes, each
// as an unsigned varint, with no count.
func (c *Codec) U64s(p []uint64) {
	for i := range p {
		c.U64(&p[i])
	}
}

// Words walks p as one length-prefixed byte string of fixed-width
// little-endian words (for values a varint would inflate: random state). The
// length is p's; a frame that disagrees is corrupt.
func (c *Codec) Words(p []uint64) {
	if c.r == nil {
		c.w.U64(uint64(8 * len(p)))
		for _, x := range p {
			c.w.buf = binary.LittleEndian.AppendUint64(c.w.buf, x)
		}
		return
	}
	r := c.r
	n := r.U64()
	switch {
	case r.err != nil:
	case n != uint64(8*len(p)):
		r.fail(fmt.Errorf("%w: word field is %d bytes, want %d", ErrCorrupt, n, 8*len(p)))
	case r.Remaining() < 8*len(p):
		r.fail(fmt.Errorf("%w: field needs %d bytes, %d remain", ErrTruncated, n, r.Remaining()))
	default:
		for i := range p {
			p[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
			r.off += 8
		}
	}
}

// Marker walks a section marker: written when saving, asserted when loading.
func (c *Codec) Marker(m uint64) {
	if c.r != nil {
		c.r.Expect(m)
	} else {
		c.w.Marker(m)
	}
}

// Len walks the element count of a variable-length section and returns the
// count to walk: n when saving, the frame's when loading. Every element of
// every section costs at least one payload byte, so a decoded count larger
// than the bytes left cannot be honest; it fails the walk (and returns 0)
// before anything is sized or looped by it. This is the one place decoded
// counts are bounded.
func (c *Codec) Len(n int) int {
	if c.r == nil {
		c.w.U64(uint64(n))
		return n
	}
	v := c.r.U64()
	if left := c.r.Remaining(); v > uint64(left) {
		c.r.fail(fmt.Errorf("%w: count %d exceeds the %d payload bytes left", ErrTruncated, v, left))
		return 0
	}
	return int(v)
}

// Fixed walks a count that configuration fixes (banks, threads, ROB depth):
// the restore target was built with n of them, so a frame that says otherwise
// was written for another machine.
func (c *Codec) Fixed(n int, what string) {
	if c.r == nil {
		c.w.U64(uint64(n))
	} else if v := c.r.U64(); c.r.err == nil && v != uint64(n) {
		c.r.fail(fmt.Errorf("%w: snapshot has %d %s, restore target has %d", ErrCorrupt, v, what, n))
	}
}

// Ref walks a reference descriptor: saving writes *p (nil as absent), loading
// replaces *p with the decoded one (nil when absent).
func (c *Codec) Ref(p **Ref) {
	if c.r != nil {
		*p = c.r.Ref()
	} else {
		c.w.Ref(*p)
	}
}

type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// I64As walks an integer field of any width as a signed varint; U64As as an
// unsigned one. A decoded value is narrowed to the field's type.
func I64As[T integer](c *Codec, p *T) {
	v := int64(*p)
	c.I64(&v)
	*p = T(v)
}

// U64As: see I64As.
func U64As[T integer](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	*p = T(v)
}

// Slice walks a variable-length slice: its count through Len, then each
// element through elem. Loading refills *s from empty, keeping its capacity,
// and stops at the first element that fails, which is not kept.
func Slice[T any](c *Codec, s *[]T, elem func(*T)) {
	n := c.Len(len(*s))
	if c.r == nil {
		for i := range *s {
			elem(&(*s)[i])
		}
		return
	}
	clear(*s)
	*s = (*s)[:0]
	for i := 0; i < n; i++ {
		var zero T
		*s = append(*s, zero)
		if elem(&(*s)[i]); c.r.err != nil {
			*s = (*s)[:i]
			return
		}
	}
}

// BoolArg is a flag in the uint64 Ref-arg space.
func BoolArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
