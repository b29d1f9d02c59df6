package workload

// The generators' random source (DESIGN §2). Every simulated number hangs off
// the stream math/rand's seeded source produces, and Go 1 freezes that
// stream; what math/rand does not offer is its state. So the generator owns
// the generator: math/rand's source is an additive lagged-Fibonacci register,
// x[n] = x[n-607] + x[n-273] over 64-bit words, which means its last 607
// outputs are its whole state. source reads the first 607 outputs from
// rand.NewSource(seed) and computes every later one itself, a block of 607 at
// a time — value for value and draw for draw what math/rand would have
// returned, with the state in plain sight for the snapshot walk and no
// interface call per draw.

import (
	"fmt"
	"math/rand"

	"smtdram/internal/snap"
)

const (
	srcLen = 607 // register length: the recurrence's long lag
	srcTap = 273 // the short lag
)

type source struct {
	buf  [srcLen]uint64 // outputs base .. base+srcLen-1 of the stream
	pos  int            // next unread word; srcLen when the block is spent
	base uint64         // draws that came before buf[0]
	// refills counts the blocks this value has computed. It is not state and
	// is never serialized: a restored source that reports zero has provably
	// not stepped through the draws its snapshot was taken behind.
	refills uint64
}

func (s *source) seed(seed int64) {
	r := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = r.Uint64()
	}
	s.pos, s.base = 0, 0
}

// refill replaces the spent block with the next one in place. Word i of the
// new block is the old word i (607 draws back) plus the word 273 draws back:
// still in the old block for the first 273 words, already rewritten after.
func (s *source) refill() {
	b := &s.buf
	for i := 0; i < srcTap; i++ {
		b[i] += b[i+srcLen-srcTap]
	}
	for i := srcTap; i < srcLen; i++ {
		b[i] += b[i-srcTap]
	}
	s.pos = 0
	s.base += srcLen
	s.refills++
}

// draws is the number of words drawn since the seed.
func (s *source) draws() uint64 { return s.base + uint64(s.pos) }

func (s *source) uint64() uint64 {
	if s.pos == srcLen {
		s.refill()
	}
	x := s.buf[s.pos]
	s.pos++
	return x
}

func (s *source) int63() int64 { return int64(s.uint64() & (1<<63 - 1)) }

// Every decision the generators take is rand.Float64() < p for a constant p of
// the application, and the conversion from draw to float is monotone, so each
// one is an integer comparison of the raw 63-bit draw against a threshold
// found once. one is thresh(1): the draws from there up convert to exactly
// 1.0, which rand.Float64 throws away and redraws.
const one = 1<<63 - 1<<9

// thresh returns the smallest x in [0, one] with float64(x)/(1<<63) >= p, so
// that rand.Float64() < p is draw63() < thresh(p), draw for draw: 0, never,
// for p <= 0 and one, always, for p >= 1. p must be a number — every
// comparison with NaN is false, which here would also land on always — and
// App.Validate admits nothing else.
func thresh(p float64) uint64 {
	lo, hi := uint64(0), uint64(one)
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(int64(mid))/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// draw63 is the next draw rand.Float64 would have kept. (Masking here rather
// than through int63 keeps below within the inliner's budget.)
func (s *source) draw63() uint64 {
	for {
		if x := s.uint64() & (1<<63 - 1); x < one {
			return x
		}
	}
}

// below is rand.Float64() < p for t = thresh(p).
func (s *source) below(t uint64) bool { return s.draw63() < t }

// runBelow is n := 0; for below(t) && n < max { n++ } in one scan over the
// register: it counts the draws below t, stops counting at max, and consumes
// the draw that ended the run — the first not below t, or the one that found
// max reached — like the loop does.
func (s *source) runBelow(t uint64, max int) int {
	n := 0
	for {
		if s.pos == srcLen {
			s.refill()
		}
		for i, w := range s.buf[s.pos:] {
			if x := w & (1<<63 - 1); x < t && n < max {
				n++
			} else if x < one { // not a redraw: t <= one, so this draw ends the run
				s.pos += i + 1
				return n
			}
		}
		s.pos = srcLen
	}
}

// int63n and intn are rand.Rand's Int63n and Intn, Go 1's definitions line for
// line (rejection loops included), so they consume the same draws and return
// the same values. n must be positive.

func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}

func (s *source) int31() int32 { return int32(s.int63() >> 32) }

func (s *source) intn(n int) int {
	if n > 1<<31-1 {
		return int(s.int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(s.int31() & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return int(v % m)
}

// walk is the source's part of the generator's snapshot walk: the register
// fixed-width (a varint would spend ten bytes on most of these words), then
// the cursor and the draw count. Loading installs the state in O(state)
// whatever the draw count, and rejects one that does not fit together or was
// taken behind the receiver — a source seeded like the saved one, normally
// fresh — which it would silently rewind. A rejected load leaves s
// overwritten: Gen.Snap walks a scratch copy for that reason.
func (s *source) walk(c *snap.Codec) {
	before := s.draws()
	c.Words(s.buf[:])
	snap.U64As(c, &s.pos)
	draws := before
	c.U64(&draws)
	if !c.Loading() || c.Err() != nil {
		return
	}
	switch pos := uint64(s.pos); {
	case pos > srcLen || draws < pos || (draws-pos)%srcLen != 0:
		c.Fail(fmt.Errorf("%w: random source cursor %d does not fit draw count %d", snap.ErrCorrupt, pos, draws))
	case before > draws:
		c.Fail(fmt.Errorf("%w: generator already advanced %d draws, snapshot at %d", snap.ErrCorrupt, before, draws))
	default:
		s.base = draws - pos
	}
}
