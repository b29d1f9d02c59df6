package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hashStream feeds the next n instructions of a generator to h in a fixed
// field encoding.
func hashStream(h hash.Hash, g *Gen, n int) {
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
}

// streamHash folds the first n instructions of a generator into one FNV-1a
// sum.
func streamHash(g *Gen, n int) uint64 {
	h := fnv.New64a()
	hashStream(h, g, n)
	return h.Sum64()
}

// streamDigest is what testdata/stream.sha256 holds: for every catalog
// application x thread {0, 7} x seed {1, 42}, the SHA-256 of the first 200 000
// instructions and the number of source words drawn to make them. -short
// keeps one thread and seed per application.
func streamDigest(t testing.TB) string {
	var out strings.Builder
	for _, app := range Names() {
		for _, thread := range []int{0, 7} {
			for _, seed := range []int64{1, 42} {
				if testing.Short() && (thread != 7 || seed != 42) {
					continue
				}
				g := mustGen(t, app, thread, seed)
				h := sha256.New()
				hashStream(h, g, 200_000)
				fmt.Fprintf(&out, "%x  %s/t%d/s%d draws=%d\n", h.Sum(nil), app, thread, seed, g.src.draws())
			}
		}
	}
	return out.String()
}

// The file was written by the binary of the commit before the generator's
// decisions became integer comparisons (CHANGES.md, PR 22, says how): one
// moved draw anywhere in twenty million instructions is a red line here.
func TestStreamDigest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stream.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	got := streamDigest(t)
	if !testing.Short() && got != string(want) {
		t.Error("the digest differs from the pinned file as a whole")
	}
	for _, line := range strings.SplitAfter(got, "\n") {
		if !strings.Contains(string(want), line) {
			t.Errorf("not in the pinned file: %s", line)
		}
	}
}

// countedRand is the reference: math/rand over its own seeded source, with
// the source steps counted.
type countedRand struct {
	rand.Source64
	n uint64
}

func (c *countedRand) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedRand) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

func mirror(seed int64) (*source, *rand.Rand, *countedRand) {
	own := new(source)
	own.seed(seed)
	ref := &countedRand{Source64: rand.NewSource(seed).(rand.Source64)}
	return own, rand.New(ref), ref
}

// float64 is rand.Rand's Float64, Go 1's definition line for line. The
// generators stopped calling it when their decisions became integer
// comparisons; it stays as the reference those are tested against.
func (s *source) float64() float64 {
	for {
		if f := float64(s.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// The reference float64 must be rand.Rand.Float64 value for value and
// draw for draw: every Result in the repository hangs off this stream.
func TestFloat64MirrorsRandFloat64(t *testing.T) {
	own, ref, cnt := mirror(11)
	for i := 0; i < 100_000; i++ {
		if x, y := own.float64(), ref.Float64(); x != y {
			t.Fatalf("draw %d: float64() = %v, rand.Float64() = %v", i, x, y)
		}
		if own.draws() != cnt.n {
			t.Fatalf("draw %d: %d source steps against rand's %d", i, own.draws(), cnt.n)
		}
	}
}

// Every draw the generators make, against math/rand on the same seed, far past
// the seeded register (2M draws is over 3000 block refills): values and
// source-step counts must agree at every step, rejection loops included.
// The bounds cover the power-of-two shortcut, small moduli as the models use
// them, and moduli just over a power of two, which reject half their draws.
func TestSourceMirrorsMathRand(t *testing.T) {
	n63 := []int64{1 << 20, 3, 600 << 20, 1<<62 + 1}
	nInt := []int{64, 3, 1<<30 + 1, 1<<31 + 5}
	for _, seed := range []int64{1, 42, -7, 0x5E3779B97F4A7C15} {
		own, ref, cnt := mirror(seed)
		for i := 0; cnt.n < 2_000_000; i++ {
			var x, y uint64
			switch i % 5 {
			case 0:
				x, y = own.uint64(), ref.Uint64()
			case 1:
				x, y = uint64(own.int63()), uint64(ref.Int63())
			case 2:
				x, y = math.Float64bits(own.float64()), math.Float64bits(ref.Float64())
			case 3:
				n := n63[i/5%len(n63)]
				x, y = uint64(own.int63n(n)), uint64(ref.Int63n(n))
			case 4:
				n := nInt[i/5%len(nInt)]
				x, y = uint64(own.intn(n)), uint64(ref.Intn(n))
			}
			if x != y || own.draws() != cnt.n {
				t.Fatalf("seed %d step %d (kind %d): got %#x after %d draws, math/rand %#x after %d",
					seed, i, i%5, x, own.draws(), y, cnt.n)
			}
		}
		if own.refills < 3000 {
			t.Fatalf("seed %d: only %d refills exercised", seed, own.refills)
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
