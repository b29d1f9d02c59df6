package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

// memoGet is Do with a context-free compute function.
func memoGet[K comparable, V any](m *Memo[K, V], p *Pool, key K, fn func() (V, error)) (V, error) {
	return m.Do(bg, p, key, func(context.Context) (V, error) { return fn() })
}

// lruVal is a two-part value, the shape of the daemon's cached result (bytes
// plus a sidecar): both parts must come back intact from every hit.
type lruVal struct {
	n    int
	side string
}

func lruValOf(key string) lruVal { return lruVal{n: len(key), side: "side-" + key} }

// TestMemoCapEvictsLRU is the one table over the one LRU. Each row runs a
// script against a fresh memo — "do:k" is a Do (compute, join or hit),
// "look:k" a Lookup — and then checks which keys memory still answers, with
// both halves of their values, the eviction counter, the table size and how
// many times the compute function ran.
func TestMemoCapEvictsLRU(t *testing.T) {
	cases := []struct {
		name      string
		cap       int
		ops       string
		present   string // Lookup hits, checked in this order
		absent    string // Lookup misses
		evictions uint64
		entries   int
		computes  int32
	}{
		{name: "overflow evicts the oldest", cap: 2, ops: "do:a do:b do:c",
			present: "b c", absent: "a", evictions: 1, entries: 2, computes: 3},
		{name: "a Lookup hit promotes", cap: 2, ops: "do:a do:b look:a do:c",
			present: "a c", absent: "b", evictions: 1, entries: 2, computes: 3},
		{name: "a Do hit promotes", cap: 2, ops: "do:a do:bb do:a do:ccc",
			present: "a ccc", absent: "bb", evictions: 1, entries: 2, computes: 3},
		{name: "an evicted key recomputes", cap: 2, ops: "do:a do:b do:c do:a",
			present: "c a", absent: "b", evictions: 2, entries: 2, computes: 4},
		{name: "repeating a key keeps one entry", cap: 2, ops: "do:a do:a look:a",
			present: "a", evictions: 0, entries: 1, computes: 1},
		{name: "a negative cap retains nothing", cap: -1, ops: "do:a do:a",
			absent: "a", evictions: 0, entries: 0, computes: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(4)
			var memo Memo[string, lruVal]
			memo.SetCap(tc.cap)
			var computes atomic.Int32
			for _, op := range strings.Fields(tc.ops) {
				verb, key, _ := strings.Cut(op, ":")
				switch verb {
				case "do":
					v, err := memoGet(&memo, p, key, func() (lruVal, error) {
						computes.Add(1)
						return lruValOf(key), nil
					})
					if err != nil || v != lruValOf(key) {
						t.Fatalf("%s = %+v, %v", op, v, err)
					}
				case "look":
					if v, src, ok := memo.Lookup(bg, key, -1); !ok || src != nil || v != lruValOf(key) {
						t.Fatalf("%s = %+v, src %v, ok %v; want a memory hit", op, v, src, ok)
					}
				}
			}
			st := memo.Stats()
			if st.Evictions != tc.evictions || st.Entries != tc.entries || computes.Load() != tc.computes {
				t.Fatalf("evictions=%d entries=%d computes=%d, want %d/%d/%d",
					st.Evictions, st.Entries, computes.Load(), tc.evictions, tc.entries, tc.computes)
			}
			for _, key := range strings.Fields(tc.absent) {
				if _, _, ok := memo.Lookup(bg, key, -1); ok {
					t.Fatalf("%q should be gone", key)
				}
			}
			for _, key := range strings.Fields(tc.present) {
				if v, _, ok := memo.Lookup(bg, key, -1); !ok || v != lruValOf(key) {
					t.Fatalf("%q = %+v, %v; want it cached with its sidecar intact", key, v, ok)
				}
			}
		})
	}
}

// TestMemoCapNeverEvictsInFlight: running work survives any cap pressure —
// the memo transiently exceeds its cap instead — and resolved entries around
// it are shed first.
func TestMemoCapNeverEvictsInFlight(t *testing.T) {
	p := NewPooled(2)
	var memo Memo[string, int]
	memo.SetCap(1)

	var release sync.WaitGroup
	release.Add(1)
	var flightRuns atomic.Int32
	inflight, _ := memo.Join(bg, p, "inflight", func(context.Context) (int, error) {
		flightRuns.Add(1)
		release.Wait()
		return 10, nil
	})

	// A resolved entry lands next to the airborne one: over cap, but the
	// flight must not be the victim.
	if v, err := memoGet(&memo, p, "resolved", func() (int, error) { return 20, nil }); v != 20 || err != nil {
		t.Fatalf("resolved = %d, %v", v, err)
	}
	// Another insertion forces eviction; the only eligible victim is
	// "resolved".
	if v, err := memoGet(&memo, p, "next", func() (int, error) { return 30, nil }); v != 30 || err != nil {
		t.Fatalf("next = %d, %v", v, err)
	}
	if memo.Stats().Evictions == 0 {
		t.Fatal("no eviction despite resolved entries over cap")
	}

	release.Done()
	if v, err := inflight.Wait(bg); v != 10 || err != nil {
		t.Fatalf("inflight = %d, %v", v, err)
	}
	// The in-flight entry is still cached: a later Do hits it.
	if v, err := memoGet(&memo, p, "inflight", func() (int, error) { return -1, nil }); v != 10 || err != nil {
		t.Fatalf("post-flight hit = %d, %v", v, err)
	}
	if got := flightRuns.Load(); got != 1 {
		t.Fatalf("in-flight entry ran %d times; eviction touched running work", got)
	}
}

// TestMemoCapZeroIsUnbounded: the default (and an explicit SetCap(0)) never
// evicts.
func TestMemoCapZeroIsUnbounded(t *testing.T) {
	p := New(2)
	var memo Memo[int, int]
	memo.SetCap(0)
	for i := 0; i < 64; i++ {
		if _, err := memoGet(&memo, p, i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := memo.Stats(); st.Evictions != 0 || st.Entries != 64 {
		t.Fatalf("unbounded memo: %+v, want 0 evictions and 64 entries", st)
	}
}

// TestMemoCapLoweredShedsOnNextInsert: SetCap is lazy by contract — an
// over-cap memo sheds down to its bound at the next insertion, not at SetCap.
func TestMemoCapLoweredShedsOnNextInsert(t *testing.T) {
	p := New(2)
	var memo Memo[int, int]
	for i := 0; i < 8; i++ {
		memoGet(&memo, p, i, func() (int, error) { return i, nil })
	}
	memo.SetCap(3)
	if got := memo.Stats().Entries; got != 8 {
		t.Fatalf("SetCap evicted immediately: Entries = %d, want 8", got)
	}
	memoGet(&memo, p, 100, func() (int, error) { return 100, nil })
	if st := memo.Stats(); st.Entries != 3 || st.Evictions != 6 {
		t.Fatalf("after overflow insert: %+v, want 3 entries and 6 evictions", st)
	}
}

// TestMemoWaiterCancelDoesNotFailOthers: the computation belongs to the memo,
// not to the caller that happened to start it. Cancelling the first caller
// after a second has joined leaves the second with the value, computed once.
func TestMemoWaiterCancelDoesNotFailOthers(t *testing.T) {
	p := NewPooled(2)
	var memo Memo[string, int]
	var runs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		runs.Add(1)
		close(started)
		select {
		case <-release:
			return 7, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}

	ctxA, cancelA := context.WithCancel(bg)
	errA := make(chan error, 1)
	go func() {
		_, err := memo.Do(ctxA, p, "k", fn)
		errA <- err
	}()
	<-started
	type res struct {
		v   int
		err error
	}
	resB := make(chan res, 1)
	go func() {
		v, err := memo.Do(bg, p, "k", fn)
		resB <- res{v, err}
	}()
	for memo.Stats().Joins == 0 { // B has boarded A's flight
		time.Sleep(time.Millisecond)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	close(release)
	if r := <-resB; r.err != nil || r.v != 7 {
		t.Fatalf("surviving caller got %d, %v; want 7, nil", r.v, r.err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want once", got)
	}
}

// TestMemoLastLeaveCancelsAndFrees: when every caller has left, the
// computation's context is cancelled and the key is free at once — the next
// Join starts a fresh computation instead of boarding the doomed one.
func TestMemoLastLeaveCancelsAndFrees(t *testing.T) {
	p := NewPooled(2)
	var memo Memo[string, int]
	cancelled := make(chan struct{})
	f1, _ := memo.Join(bg, p, "k", func(ctx context.Context) (int, error) {
		<-ctx.Done()
		close(cancelled)
		return 0, ctx.Err()
	})
	f2, out := memo.Join(bg, p, "k", nil)
	if out != Joined || f2 != f1 {
		t.Fatalf("second Join: outcome %v, want Joined on the same flight", out)
	}
	f1.Leave()
	select {
	case <-cancelled:
		t.Fatal("computation cancelled while a caller was still attached")
	case <-time.After(20 * time.Millisecond):
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := f2.Wait(ctx); !errors.Is(err, context.Canceled) { // Wait leaves on ctx
		t.Fatalf("Wait under a cancelled ctx = %v", err)
	}
	<-cancelled
	f3, out := memo.Join(bg, p, "k", func(context.Context) (int, error) { return 9, nil })
	if v, err := f3.Wait(bg); out != Started || v != 9 || err != nil {
		t.Fatalf("Join after abandonment: outcome %v, value %d, %v; want a fresh computation", out, v, err)
	}
}

// mapTier is a Tier over a map, counting its Gets.
func mapTier(m map[string]int, gets *atomic.Int32, gate chan struct{}) *Tier[string, int] {
	var mu sync.Mutex
	return &Tier[string, int]{
		Get: func(_ context.Context, key string) (int, error) {
			gets.Add(1)
			if gate != nil {
				<-gate
			}
			mu.Lock()
			defer mu.Unlock()
			v, ok := m[key]
			switch {
			case !ok:
				return 0, ErrMiss
			case v < 0:
				return 0, errors.New("damaged")
			}
			return v, nil
		},
		Put: func(key string, v int) {
			mu.Lock()
			m[key] = v
			mu.Unlock()
		},
	}
}

// TestMemoTiers: Lookup walks memory then the tiers up to its depth, a hit in
// a later tier is promoted into memory and the tiers before it, a damaged
// entry counts corrupt and miss and is recomputed, and a computed value is
// written through to every tier.
func TestMemoTiers(t *testing.T) {
	near, far := map[string]int{"bad": -1}, map[string]int{"deep": 4}
	var nearGets, farGets atomic.Int32
	var memo Memo[string, int]
	t0, t1 := mapTier(near, &nearGets, nil), mapTier(far, &farGets, nil)
	memo.Tiers = []*Tier[string, int]{t0, t1}
	p := New(2)

	if _, _, ok := memo.Lookup(bg, "deep", 1); ok {
		t.Fatal("a depth-1 Lookup consulted the second tier")
	}
	if v, src, ok := memo.Lookup(bg, "deep", -1); !ok || v != 4 || src != t1 {
		t.Fatalf("Lookup(deep) = %d, %v, %v; want 4 from the far tier", v, src, ok)
	}
	if near["deep"] != 4 {
		t.Fatal("a far-tier hit was not put into the nearer tier")
	}
	before := nearGets.Load()
	if _, src, ok := memo.Lookup(bg, "deep", -1); !ok || src != nil || nearGets.Load() != before {
		t.Fatal("a tier hit was not promoted into memory")
	}

	if v, err := memoGet(&memo, p, "bad", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("Do over a damaged entry = %d, %v", v, err)
	}
	if near["bad"] != 3 || far["bad"] != 3 {
		t.Fatalf("computed value not written through: near=%d far=%d", near["bad"], far["bad"])
	}
	if st := t0.Stats(); st.Hits != 0 || st.Corrupt != 1 || st.Misses != 3 {
		t.Fatalf("near tier stats = %+v, want 0 hits, 1 corrupt, 3 misses", st)
	}
	if st := t1.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("far tier stats = %+v, want 1 hit, 1 miss", st)
	}
	if st := memo.Stats(); st.Hits != 2 || st.Misses != 2 || st.Starts != 1 {
		t.Fatalf("memo stats = %+v, want 2 hits, 2 misses (a shallow Lookup, Do's Lookup) and 1 start", st)
	}
}

// TestMemoConcurrentLookupsProbeOnce: identical concurrent misses read the
// tiers once; the rest wait for that probe and share its answer.
func TestMemoConcurrentLookupsProbeOnce(t *testing.T) {
	for _, held := range []bool{true, false} {
		tier := map[string]int{}
		if held {
			tier["k"] = 5
		}
		var gets atomic.Int32
		gate := make(chan struct{})
		var memo Memo[string, int]
		memo.SetCap(-1) // nothing retained: the waiters must get the probe's own answer
		memo.Tiers = []*Tier[string, int]{mapTier(tier, &gets, gate)}

		const n = 8
		var wg, ready sync.WaitGroup
		var hits atomic.Int32
		for i := 0; i < n; i++ {
			wg.Add(1)
			ready.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				if v, _, ok := memo.Lookup(bg, "k", -1); ok && v == 5 {
					hits.Add(1)
				}
			}()
		}
		ready.Wait()
		time.Sleep(50 * time.Millisecond) // let every lookup reach the probe or queue behind it
		close(gate)
		wg.Wait()
		if got := gets.Load(); got != 1 {
			t.Fatalf("held=%v: tier read %d times, want once", held, got)
		}
		if want := map[bool]int32{true: n, false: 0}[held]; hits.Load() != want {
			t.Fatalf("held=%v: %d of %d lookups hit, want %d", held, hits.Load(), n, want)
		}
	}
}
