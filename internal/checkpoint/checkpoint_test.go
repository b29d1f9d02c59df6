package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/snap"
	"smtdram/internal/store"
)

func fastCfg(apps ...string) core.Config {
	cfg := core.DefaultConfig(apps...)
	cfg.WarmupInstr = 10_000
	cfg.TargetInstr = 15_000
	return cfg
}

// run executes cfg through c and returns the result's canonical JSON.
func run(t *testing.T, c *Cache, cfg core.Config) []byte {
	t.Helper()
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNilCacheRunsPlainly(t *testing.T) {
	cfg := fastCfg("mcf")
	var c *Cache
	got := run(t, c, cfg)
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("nil cache diverged from a plain run\ngot:  %s\nwant: %s", got, want)
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Fatalf("nil cache Snapshot = %+v, want zeros", st)
	}
}

func TestRunMemoizesWarmup(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)

	c := New()
	first := run(t, c, cfg)
	if !bytes.Equal(first, want) {
		t.Fatalf("first cached run diverged from a plain run\ngot:  %s\nwant: %s", first, want)
	}
	second := run(t, c, cfg)
	if !bytes.Equal(second, want) {
		t.Fatalf("forked run diverged from a plain run\ngot:  %s\nwant: %s", second, want)
	}

	st := c.Snapshot()
	if st.Misses != 1 || st.Hits != 1 || st.Forks != 2 || st.Bypassed != 0 {
		t.Fatalf("counters = %+v, want 1 miss, 1 hit, 2 forks", st)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
}

func TestUnsupportedConfigBypasses(t *testing.T) {
	cfg := fastCfg("mcf")
	cfg.WarmupInstr = 0 // nothing to checkpoint
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)

	c := New()
	if got := run(t, c, cfg); !bytes.Equal(got, want) {
		t.Fatalf("bypassed run diverged from a plain run\ngot:  %s\nwant: %s", got, want)
	}
	st := c.Snapshot()
	if st.Bypassed != 1 || st.Hits != 0 || st.Misses != 0 || st.Forks != 0 {
		t.Fatalf("counters = %+v, want exactly 1 bypass", st)
	}
}

// TestConcurrentRunsShareOneWarmup: concurrent Runs of one prefix collapse to
// a single warmup simulation; everyone else joins the flight and is a hit.
func TestConcurrentRunsShareOneWarmup(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	c := New()
	const n = 8
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Run(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], _ = json.Marshal(res)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("concurrent run %d diverged", i)
		}
	}
	st := c.Snapshot()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 shared warmup", st.Misses)
	}
	if st.Hits != n-1 || st.Forks != n {
		t.Fatalf("counters = %+v, want %d hits and %d forks", st, n-1, n)
	}
}

func TestStorePersistsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg("mcf", "art")

	cold, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, cold, cfg)
	if st := cold.Snapshot(); st.Misses != 1 {
		t.Fatalf("cold cache Misses = %d, want 1", st.Misses)
	}

	// A fresh cache over the same directory serves the warmup from disk.
	warm, err := Open(dir, store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, warm, cfg); !bytes.Equal(got, want) {
		t.Fatalf("disk-served run diverged\ngot:  %s\nwant: %s", got, want)
	}
	st := warm.Snapshot()
	if st.Hits != 1 || st.Misses != 0 || st.Forks != 1 {
		t.Fatalf("warm cache counters = %+v, want a pure disk hit", st)
	}
}

// seal recomputes a checkpoint frame's trailing CRC-32C in place.
func seal(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:],
		crc32.Checksum(frame[:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
	return frame
}

// oversizedCount returns a sealed copy of frame whose CPU section claims
// 1<<62 issue-queue entries: a valid frame of this build's version that lies
// about its contents. It reads up to that count the way the walks do (the
// simulator header, the CPU section's scalars, its committed-store buffer).
func oversizedCount(t *testing.T, frame []byte) []byte {
	t.Helper()
	r, err := snap.NewReader(frame, string(frame[:4]), frame[4])
	if err != nil {
		t.Fatal(err)
	}
	r.U64() // core's section marker
	_ = r.String()
	for i := 0; i < 4+1+2; i++ { // run-loop registers; cpu's marker, Cycles, TotalCommitted
		r.U64()
	}
	for i := 0; i < 7; i++ {
		r.I64()
	}
	r.Bool()
	r.Bool()
	for n := r.U64(); n > 0; n-- { // committed stores: address + cache.Meta
		r.U64()
		r.I64()
		r.Bool()
		r.I64()
		r.I64()
		r.I64()
	}
	at := len(frame) - 4 - r.Remaining()
	if old := r.U64(); r.Err() != nil || old == 0 || old > 96 {
		t.Fatalf("issue-queue count reads %d (%v): the CPU section's layout moved, update this reader", old, r.Err())
	}
	out := binary.AppendUvarint(append([]byte(nil), frame[:at]...), 1<<62)
	return seal(append(out, frame[len(frame)-4-r.Remaining():]...))
}

// TestCorruptStoreEntryRecomputes: a store entry that is not a checkpoint
// this build can restore — undecodable bytes (the store's own CRC can still
// pass: it seals whatever was written), a well-formed frame an earlier codec
// version wrote, or a sealed current-version frame whose payload lies — must
// degrade to a recomputed warmup, never a failed or wrong run.
func TestCorruptStoreEntryRecomputes(t *testing.T) {
	cfg := fastCfg("mcf")
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	chk, err := core.WarmupCheckpoint(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The frame as another codec version would have stamped it: the version
	// byte (after the 4-byte magic) changed, checksum re-sealed so only the
	// version check can object. Versions 2 to 4 are pinned by number: 2
	// carried each generator's RNG as a draw count where this build expects
	// the register, 3 every cache line as five fields where this build expects
	// a bitmap and the valid ones, 4 two watchdog registers ahead of the skip
	// counters, so a reader that let any through would mis-restore rather
	// than fail.
	stamp := func(version byte) []byte {
		f := append([]byte(nil), chk.Data...)
		f[4] = version
		return seal(f)
	}
	older, v2, v3, v4 := stamp(chk.Data[4]-1), stamp(2), stamp(3), stamp(4)
	for name, frame := range map[string][]byte{"previous-version": older, "version-2": v2, "version-3": v3, "version-4": v4} {
		if _, err := core.NewCheckpointedSimulator(cfg, &core.Checkpoint{Prefix: chk.Prefix, Now: chk.Now, Data: frame}); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("%s frame: got %v, want snap.ErrVersion", name, err)
		}
	}
	var now [8]byte
	binary.LittleEndian.PutUint64(now[:], chk.Now)

	for name, payload := range map[string][]byte{
		"undecodable":      []byte("not a checkpoint frame"),
		"previous version": older,
		"version 2":        v2,
		"version 3":        v3,
		"version 4":        v4,
		"oversized count":  oversizedCount(t, chk.Data),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir, store.FsyncOff)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store().Put(keyPrefix+cfg.WarmupFingerprint(), payload, now[:]); err != nil {
				t.Fatal(err)
			}
			if got := run(t, c, cfg); !bytes.Equal(got, wantJSON) {
				t.Fatalf("run over unusable entry diverged\ngot:  %s\nwant: %s", got, wantJSON)
			}
			st := c.Snapshot()
			if st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("counters = %+v, want the unusable entry to recompute as a miss", st)
			}

			// The recompute overwrote the bad entry: a fresh cache now hits cleanly.
			again, err := Open(dir, store.FsyncOff)
			if err != nil {
				t.Fatal(err)
			}
			if got := run(t, again, cfg); !bytes.Equal(got, wantJSON) {
				t.Fatalf("post-repair run diverged\ngot:  %s\nwant: %s", got, wantJSON)
			}
			if st := again.Snapshot(); st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("post-repair counters = %+v, want a disk hit", st)
			}
		})
	}
}

// TestTargetKeysTheCheckpoint: a fast thread can commit warmup+target
// instructions before the slowest thread has warmed, so the cycle it finished
// on is frozen into the checkpoint — under the target the checkpoint was taken
// with. Two configurations differing only in TargetInstr (an explicit budget
// keeps every other term of the prefix equal) used to share one, and the
// second reported the first's finishing cycles as its own IPC.
func TestTargetKeysTheCheckpoint(t *testing.T) {
	c := New()
	for _, target := range []uint64{10_000, 30_000} {
		cfg := core.DefaultConfig("mcf", "ammp", "swim", "lucas")
		cfg.WarmupInstr, cfg.TargetInstr, cfg.MaxCycles = 20_000, target, 50_000_000
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("target %d through the cache diverged from a plain run\ngot:  %+v\nwant: %+v", target, got, want)
		}
	}
	if st := c.Snapshot(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("counters = %+v, want each target to warm up for itself", st)
	}
}

func TestSetCapEvicts(t *testing.T) {
	c := New()
	c.SetCap(1)
	run(t, c, fastCfg("mcf"))
	run(t, c, fastCfg("art")) // different prefix: overflows the cap
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("counters = %+v, want 1 eviction leaving 1 entry", st)
	}
}

// TestCancelledGetDoesNotFailJoinedGet: a warmup belongs to the cache, not to
// the caller that happened to start it. Two Gets share one prefix; the first
// caller's context is cancelled after the second has joined; the second must
// still receive a checkpoint that restores, from the one warmup that ran.
func TestCancelledGetDoesNotFailJoinedGet(t *testing.T) {
	cfg := fastCfg("mcf", "art")
	cfg.WarmupInstr = 100_000 // long enough that the cancel lands mid-warmup
	c := New()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := c.Get(ctxA, cfg)
		errA <- err
	}()
	for c.Snapshot().Misses == 0 { // A's warmup is in flight
		time.Sleep(time.Millisecond)
	}
	type res struct {
		chk *core.Checkpoint
		err error
	}
	resB := make(chan res, 1)
	go func() {
		chk, err := c.Get(context.Background(), cfg)
		resB <- res{chk, err}
	}()
	for c.Snapshot().Hits == 0 { // B has joined it
		time.Sleep(time.Millisecond)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get returned %v, want context.Canceled (warmup finished before the cancel?)", err)
	}
	b := <-resB
	if b.err != nil {
		t.Fatalf("joined Get failed with the other caller's cancellation: %v", b.err)
	}
	if _, err := core.NewCheckpointedSimulator(cfg, b.chk); err != nil {
		t.Fatalf("joined Get's checkpoint does not restore: %v", err)
	}
	if st := c.Snapshot(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want the one shared warmup", st.Misses)
	}
}

// TestWarmupBudgetFallsBackToPlainRun: a budget that ends inside warmup leaves
// no boundary to capture. A plain run reports the whole run as a cold window,
// timed out; the cache must return that same Result, not the warmup's error.
func TestWarmupBudgetFallsBackToPlainRun(t *testing.T) {
	cfg := core.DefaultConfig("mcf", "ammp")
	cfg.WarmupInstr, cfg.MaxCycles = 50_000, 20_000
	want, err := core.Run(cfg)
	if err != nil || !want.TimedOut {
		t.Fatalf("plain run = %+v, %v; want a timed-out cold window", want, err)
	}
	if _, err := core.WarmupCheckpoint(context.Background(), cfg); !errors.Is(err, core.ErrWarmupBudget) {
		t.Fatalf("WarmupCheckpoint = %v, want core.ErrWarmupBudget", err)
	}
	c := New()
	got, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached run diverged from a plain run\ngot:  %+v\nwant: %+v", got, want)
	}
	if st := c.Snapshot(); st.Bypassed != 1 || st.Forks != 0 {
		t.Fatalf("counters = %+v, want the run counted as bypassed", st)
	}
}
