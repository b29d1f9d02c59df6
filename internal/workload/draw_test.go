package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// streamHash folds the first n instructions of a generator into one FNV-1a
// sum over a fixed field encoding.
func streamHash(g *Gen, n int) uint64 {
	h := fnv.New64a()
	var b [43]byte
	for i := 0; i < n; i++ {
		in := g.Next()
		b[0] = byte(in.Kind)
		binary.LittleEndian.PutUint64(b[1:], in.PC)
		binary.LittleEndian.PutUint64(b[9:], in.Addr)
		binary.LittleEndian.PutUint64(b[17:], uint64(in.Dep1))
		binary.LittleEndian.PutUint64(b[25:], uint64(in.Dep2))
		binary.LittleEndian.PutUint64(b[33:], uint64(in.Lat))
		b[41], b[42] = 0, 0
		if in.Mispredict {
			b[41] = 1
		}
		if in.Taken {
			b[42] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// The generator's own float64 must be rand.Rand.Float64 value for value and
// draw for draw: every Result in the repository hangs off this stream, and
// the snapshot codec restores a generator by replaying the draw count.
func TestFloat64MirrorsRandFloat64(t *testing.T) {
	a, _ := ByName("mcf")
	own, err := NewGen(a, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewGen(a, 3, 11)
	for i := 0; i < 100_000; i++ {
		if x, y := own.float64(), ref.rng.Float64(); x != y {
			t.Fatalf("draw %d: float64() = %v, rand.Float64() = %v", i, x, y)
		}
		if own.src.n != ref.src.n {
			t.Fatalf("draw %d: %d source steps against rand's %d", i, own.src.n, ref.src.n)
		}
	}
}

// Golden hashes of the first 10k instructions, taken at the commit before
// the generator stopped drawing through rand.Rand. A change here changes
// every simulated number.
func TestInstructionStreamGolden(t *testing.T) {
	for _, c := range []struct {
		app    string
		thread int
		seed   int64
		want   uint64
	}{
		{"mcf", 0, 42, 0x5d6c3e0556d9bb54},
		{"swim", 5, 7, 0x246a1cc6a9b11943},
	} {
		a, err := ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGen(a, c.thread, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamHash(g, 10_000); got != c.want {
			t.Errorf("%s thread %d seed %d: stream hash %#x, want %#x", c.app, c.thread, c.seed, got, c.want)
		}
	}
}
