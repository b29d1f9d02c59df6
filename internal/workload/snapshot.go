package workload

// The synthetic instruction generators' snapshot walk (DESIGN §15). The RNG
// is in the format as its state — the source's 607-word register, cursor and
// draw count (see source.go) — so restoring costs the same however long the
// generator had been running. Everything else is plain scalar state.

import "smtdram/internal/snap"

const sectionGen = 0x4E454757 // "WGEN"

// Snap walks the generator's mutable state. The application model, seed, and
// thread identity are not in the format — a restore targets a generator
// built by NewGen with the same app/thread/seed as the saved one (enforced
// upstream by the warmup-prefix fingerprint) that has not run past it.
// Loading walks a scratch copy and commits it only once the whole section has
// decoded and validated: a rejected frame leaves the generator as it was.
func (g *Gen) Snap(c *snap.Codec) error {
	w := g
	if c.Loading() {
		scratch := *g
		scratch.streamPos = make([]int64, len(g.streamPos))
		w = &scratch
	}
	c.Marker(sectionGen)
	w.src.walk(c)
	c.U64(&w.pc)
	c.Fixed(len(w.streamPos), "streams")
	for i := range w.streamPos {
		c.I64(&w.streamPos[i])
	}
	c.Int(&w.sinceCold)
	c.U64(&w.count)
	c.Bool(&w.inBurst)
	if c.Loading() && c.Err() == nil {
		*g = *w
	}
	return c.Err()
}
