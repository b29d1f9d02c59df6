package workload

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

var supplyApps = []string{"mcf", "swim", "gzip"}

// supplyGens builds one generator per supplyApps entry, thread i running
// app i: two calls with one seed build identical sets.
func supplyGens(t *testing.T, seed int64) []*Gen {
	t.Helper()
	gens := make([]*Gen, len(supplyApps))
	for i, app := range supplyApps {
		gens[i] = mustGen(t, app, i, seed)
	}
	return gens
}

// goroutinesBack waits for the goroutine count to return to base: a helper
// that has signalled its exit may take a moment to be gone from the count.
func goroutinesBack(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A supply hands out each generator's own stream, and Stop leaves each
// generator exactly as one stepped that many times directly would be: the
// same snapshot bytes, the same Generated count, the same next instruction.
// The counts put Stop at a block's start, inside it, on its last
// instruction, at its end and inside the next ones, for the first block and
// the second; both schedules go through the same fill. The inline schedule's
// Stop, with no Start before it, must start nothing, and the helper's must end
// it.
func TestSupplySettlesAtConsumption(t *testing.T) {
	for _, sched := range []string{"helper", "inline"} {
		for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 2*blockLen - 1, 2 * blockLen, 2*blockLen + 1, 1500} {
			t.Run(fmt.Sprintf("%s/%d", sched, n), func(t *testing.T) {
				base := runtime.NumGoroutine()
				gens, refs := supplyGens(t, 7), supplyGens(t, 7)
				sup := NewSupply(gens)
				// Settling twice, and resuming after a settle, must both
				// be exact: the second round starts where the first stood.
				for round := 0; round < 2; round++ {
					if sched == "helper" {
						sup.Start()
					}
					for k := 0; k < n; k++ {
						for i, f := range sup.Feeds() {
							if got, want := f.Next(), refs[i].Next(); got != want {
								t.Fatalf("round %d, thread %d, instruction %d: got %+v, want %+v", round, i, k, got, want)
							}
						}
					}
					sup.Stop()
					for i, g := range gens {
						if g.Generated() != refs[i].Generated() {
							t.Fatalf("round %d, thread %d: Generated = %d, want %d", round, i, g.Generated(), refs[i].Generated())
						}
						if !bytes.Equal(genFrame(t, g), genFrame(t, refs[i])) {
							t.Fatalf("round %d, thread %d: snapshot bytes differ after %d instructions", round, i, n)
						}
					}
				}
				sup.Stop()
				goroutinesBack(t, base, sched+" supply after Stop")
				for i, g := range gens {
					sameNext(t, supplyApps[i], g, refs[i], 1)
				}
			})
		}
	}
}

// A panic in a fill the helper ran is raised again on the goroutine that
// reads the block, with the helper's stack, which names the generator frame
// that failed; Stop then settles the generator at what was read. A
// panic in a fill nothing read is dropped with the block, as on one P, where
// that fill would not have run. The generator's stream geometry is zeroed
// after construction, so its first stream reference divides by zero; the seed
// is picked so that reference falls in the second block, which the helper
// fills.
func TestSupplyHelperPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	app, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	app.Streams, app.StreamBytes, app.StrideBytes, app.ColdBytes = 1, 1<<20, 64, 1<<20
	app.HotFrac, app.StreamFrac = 0.9, 0.002
	broken := func(seed int64) *Gen {
		g, err := NewGen(app, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		g.app.Streams = 0
		return g
	}
	// panicsAt is the instruction whose generation panics.
	panicsAt := func(g *Gen) (n int) {
		defer func() { recover() }()
		for n = 0; n < 10*blockLen; n++ {
			g.Next()
		}
		return -1
	}
	seed := int64(1)
	for ; seed < 1000; seed++ {
		if n := panicsAt(broken(seed)); n >= blockLen+blockLen/4 && n < 2*blockLen {
			break
		}
	}
	if seed == 1000 {
		t.Fatal("no seed puts the first stream reference in the second block")
	}

	for _, tc := range []struct {
		name      string
		read      int  // instructions asked for
		wantPanic bool // at the end of the first block
	}{{"read", 4 * blockLen, true}, {"unread", 100, false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := broken(seed)
			sup := NewSupply([]*Gen{g})
			sup.Start()
			f := sup.Feeds()[0]
			var read int
			func() {
				defer func() {
					r := recover()
					if (r != nil) != tc.wantPanic {
						t.Errorf("after %d instructions: panic %v, want one: %v", read, r, tc.wantPanic)
					}
					if r == nil {
						return
					}
					var rt runtime.Error
					if err, ok := r.(error); !ok || !errors.As(err, &rt) {
						t.Errorf("panic %v (%T) does not carry the fill's runtime error", r, r)
					}
					if p, ok := r.(*fillPanic); !ok || !bytes.Contains(p.stack, []byte("workload.(*Gen).Next")) {
						t.Errorf("panic %T does not carry the helper's stack through Gen.Next:\n%v", r, r)
					}
				}()
				for ; read < tc.read; read++ {
					f.Next()
				}
			}()
			if tc.wantPanic && read != blockLen {
				t.Errorf("the panic surfaced after %d instructions, want at the end of the first block (%d)", read, blockLen)
			}
			sup.Stop()
			ref := broken(seed)
			for k := 0; k < read; k++ {
				ref.Next()
			}
			if g.Generated() != uint64(read) || !bytes.Equal(genFrame(t, g), genFrame(t, ref)) {
				t.Errorf("Stop left the generator at %d instructions, not settled at the %d read", g.Generated(), read)
			}
			goroutinesBack(t, base, "after a helper panic")
		})
	}
}

// Blocks come back to the idle list whatever the number of runs that held
// them at once, so a second round of as many runs takes every block from it
// and allocates none. Twelve three-thread runs hold 72 blocks at once.
func TestIdleBlocksCoverPeakUse(t *testing.T) {
	idleLen := func() int {
		idle.Lock()
		defer idle.Unlock()
		return len(idle.blocks)
	}
	sups := make([]*Supply, 12)
	for k := range sups {
		sups[k] = NewSupply(supplyGens(t, int64(k)))
	}
	round := func() {
		for _, sup := range sups {
			for _, f := range sup.Feeds() {
				f.Next()
			}
		}
		for _, sup := range sups {
			sup.Stop()
		}
	}
	round()
	after := idleLen()
	if want := 2 * len(sups) * len(supplyApps); after < want {
		t.Fatalf("%d idle blocks after %d runs that held %d at once", after, len(sups), want)
	}
	round()
	if got := idleLen(); got != after {
		t.Fatalf("a second round left %d idle blocks, the first %d: it allocated blocks", got, after)
	}
}
