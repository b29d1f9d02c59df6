package workload

import (
	"errors"
	"reflect"
	"testing"

	"smtdram/internal/snap"
)

const testFrameMagic = "WGT1"

func mustGen(t testing.TB, app string, thread int, seed int64) *Gen {
	t.Helper()
	a, err := ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGen(a, thread, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func genFrame(t testing.TB, g *Gen) []byte {
	t.Helper()
	var w snap.Writer
	if err := g.Snap(snap.Saving(&w)); err != nil {
		t.Fatal(err)
	}
	return w.Frame(testFrameMagic, 1)
}

func restoreFrame(t testing.TB, g *Gen, frame []byte) error {
	t.Helper()
	r, err := snap.NewReader(frame, testFrameMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g.Snap(snap.Loading(r))
}

func sameNext(t *testing.T, what string, got, want *Gen, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if x, y := got.Next(), want.Next(); x != y {
			t.Fatalf("%s: instruction %d after the snapshot: got %+v, want %+v", what, i, x, y)
		}
	}
}

// A restored generator continues the original's stream, and restoring never
// steps the source: a fresh generator that takes over from one five million
// draws deep has computed zero blocks, so the cost of a restore cannot depend
// on how long the snapshotted generator had been running. The shallow depths
// put the cursor at the seeded block's start and inside it.
func TestRestoreContinuesStreamWithoutReplay(t *testing.T) {
	for _, minDraws := range []uint64{0, 1, 3 * srcLen, 5_000_000} {
		orig := mustGen(t, "mcf", 2, 9)
		for orig.src.draws() < minDraws {
			orig.Next()
		}
		frame := genFrame(t, orig)
		fresh := mustGen(t, "mcf", 2, 9)
		if err := restoreFrame(t, fresh, frame); err != nil {
			t.Fatalf("%d draws deep: %v", minDraws, err)
		}
		if fresh.src.refills != 0 {
			t.Fatalf("%d draws deep: restore computed %d blocks, want 0", minDraws, fresh.src.refills)
		}
		// Beyond that one counter the two are the same generator, field for
		// field: what TestSnapshotFieldCoverage calls serialized really is,
		// and the wiring — the thresholds among it — came through the loading
		// walk's scratch copy.
		fresh.src.refills = orig.src.refills
		if !reflect.DeepEqual(fresh, orig) {
			t.Fatalf("%d draws deep: restored generator differs from the original\ngot:  %+v\nwant: %+v", minDraws, fresh, orig)
		}
		sameNext(t, "restored", fresh, orig, 10_000)
	}
}

// A frame a loading Snap rejects must leave the generator exactly as it was: the
// next instructions match a twin that never saw the frame.
func TestFailedRestoreLeavesGeneratorUnchanged(t *testing.T) {
	donor := mustGen(t, "mcf", 0, 5)
	for i := 0; i < 100; i++ {
		donor.Next()
	}
	// section writes a generator section field by field, cut short after
	// `fields` of them, so each case can break exactly one thing.
	section := func(words []byte, pos, draws uint64, nStreams int, fields int) []byte {
		var w snap.Writer
		put := []func(){
			func() { w.Marker(sectionGen) },
			func() { w.Bytes(words) },
			func() { w.U64(pos) },
			func() { w.U64(draws) },
			func() { w.U64(donor.pc) },
			func() { w.U64(uint64(nStreams)) },
			func() {
				for i := 0; i < nStreams; i++ {
					w.I64(int64(1000 + i))
				}
			},
			func() { w.I64(7) },
			func() { w.U64(donor.count) },
			func() { w.Bool(true) },
		}
		for _, f := range put[:fields] {
			f()
		}
		return w.Frame(testFrameMagic, 1)
	}
	const all = 10
	words := make([]byte, 8*srcLen)
	streams := len(donor.streamPos)
	deep := uint64(50 * srcLen)

	for name, frame := range map[string][]byte{
		"snapshot behind the receiver": genFrame(t, donor),
		"other stream count":           section(words, 5, deep+5, streams+1, all),
		"cursor past the register":     section(words, srcLen+1, deep+srcLen+1, streams, all),
		"cursor and count disagree":    section(words, 5, deep+6, streams, all),
		"short register":               section(words[:8*srcLen-8], 5, deep+5, streams, all),
		"cut after the stream cursors": section(words, 5, deep+5, streams, 7),
		"cut before the burst flag":    section(words, 5, deep+5, streams, all-1),
	} {
		g, twin := mustGen(t, "mcf", 0, 5), mustGen(t, "mcf", 0, 5)
		for i := 0; i < 1000; i++ { // past the donor, and mid-burst state in play
			g.Next()
			twin.Next()
		}
		err := restoreFrame(t, g, frame)
		if !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, snap.ErrTruncated) {
			t.Errorf("%s: loading returned %v, want a corrupt/truncated error", name, err)
			continue
		}
		if !reflect.DeepEqual(g, twin) {
			t.Errorf("%s: rejected frame changed the generator's state", name)
		}
		sameNext(t, name, g, twin, 2000)
	}

	// The same hand-built section with nothing broken restores: the cases
	// above fail for the reason they name, not for a malformed helper.
	g := mustGen(t, "mcf", 0, 5)
	if err := restoreFrame(t, g, section(words, 5, deep+5, streams, all)); err != nil {
		t.Fatalf("well-formed section: %v", err)
	}
	if g.src.pos != 5 || g.src.base != deep || g.sinceCold != 7 || !g.inBurst || g.streamPos[0] != 1000 {
		t.Fatalf("well-formed section restored wrong: %+v", g)
	}
}

// Every field of Gen and its source is either walked by Snap (written when
// saving, installed when loading), fixed by NewGen's arguments, or
// deliberately outside the state. A new field fails here until it is
// classified — and, if it is state, carried in snapshot.go.
var snapshotFieldClass = map[string]string{
	"Gen.app":       "wiring", // NewGen's arguments: the restore target is built from the same ones
	"Gen.th":        "wiring", // derived from app
	"Gen.base":      "wiring",
	"Gen.skew":      "wiring",
	"Gen.src":       "serialized", // field by field below
	"Gen.pc":        "serialized",
	"Gen.streamPos": "serialized",
	"Gen.sinceCold": "serialized",
	"Gen.count":     "serialized",
	"Gen.inBurst":   "serialized",

	"source.buf":     "serialized",
	"source.pos":     "serialized",
	"source.base":    "serialized", // as the draw count, base+pos
	"source.refills": "diagnostic", // work this value did, not stream state
}

func TestSnapshotFieldCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Gen{}), reflect.TypeOf(source{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			switch snapshotFieldClass[name] {
			case "serialized", "wiring", "diagnostic":
			case "":
				t.Errorf("%s is not classified: list it as serialized, wiring or diagnostic, and cover it in snapshot.go", name)
			default:
				t.Errorf("%s has unknown class %q", name, snapshotFieldClass[name])
			}
		}
	}
	for name := range snapshotFieldClass {
		if !seen[name] {
			t.Errorf("%s is classified but no longer exists", name)
		}
	}
}
