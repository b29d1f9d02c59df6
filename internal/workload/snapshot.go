package workload

// Snapshot/Restore for the synthetic instruction generators (DESIGN §15).
// The RNG serializes as its state — the source's 607-word register, cursor
// and draw count (see source.go) — so restoring costs the same however long
// the generator had been running. Everything else is plain scalar state.

import (
	"fmt"

	"smtdram/internal/snap"
)

const sectionGen = 0x4E454757 // "WGEN"

// Snapshot serializes the generator's mutable state. The application model,
// seed, and thread identity are not written — restore targets a generator
// built by NewGen with identical arguments (enforced upstream by the
// warmup-prefix fingerprint).
func (g *Gen) Snapshot(w *snap.Writer) error {
	w.Marker(sectionGen)
	g.src.snapshot(w)
	w.U64(g.pc)
	w.U64(uint64(len(g.streamPos)))
	for _, p := range g.streamPos {
		w.I64(p)
	}
	w.I64(int64(g.sinceCold))
	w.U64(g.count)
	w.Bool(g.inBurst)
	return nil
}

// Restore installs the state in r. The receiver must have been built by
// NewGen with the same app/thread/seed as the snapshotted generator and not
// have run past it. The whole section is decoded and validated before any
// field is assigned: a rejected frame leaves the generator as it was.
func (g *Gen) Restore(r *snap.Reader) error {
	r.Expect(sectionGen)
	words, pos, draws := r.Bytes(), r.U64(), r.U64()
	pc := r.U64()
	nStreams := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nStreams != uint64(len(g.streamPos)) {
		return fmt.Errorf("%w: snapshot has %d streams, generator %d", snap.ErrCorrupt, nStreams, len(g.streamPos))
	}
	streamPos := make([]int64, nStreams)
	for i := range streamPos {
		streamPos[i] = r.I64()
	}
	sinceCold := int(r.I64())
	count := r.U64()
	inBurst := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if err := g.src.restore(words, pos, draws); err != nil {
		return err
	}
	g.pc, g.streamPos, g.sinceCold, g.count, g.inBurst = pc, streamPos, sinceCold, count, inBurst
	return nil
}
