// Package checkpoint is the warmup-memoization layer between the sweep
// drivers (internal/figures, the serving daemon) and the core simulator.
//
// Every sweep point pays the same warmup prefix before its measurement phase
// begins, and the machine state at the warmup boundary is a pure function of
// the warmup-prefix fingerprint (core.Config.WarmupFingerprint). The Cache
// exploits that: the first run of a prefix simulates warmup once and captures
// a core.Checkpoint; every later run of the same prefix — concurrent or not,
// in this process or (with a backing store) a later one — forks from the
// frozen machine and simulates only the measurement phase. The fork is
// byte-identical to an uninterrupted run (core's equivalence suite and the
// lockstep oracle enforce this), so memoization changes wall-clock time and
// nothing else. The prefix includes the instruction target: a fast thread can
// finish before the slowest one has warmed, and the cycle it finished on is
// part of the frozen machine, so configurations differing only in TargetInstr
// do not share a checkpoint.
//
// A Cache is safe for concurrent use and nil-safe: a nil *Cache runs every
// configuration plainly, so callers thread an optional cache without
// branching. Configurations that cannot checkpoint (no warmup phase, fault
// plans, external sources, observers — see core.CheckpointSupported — or a cycle
// budget that ends inside warmup) bypass the cache and are counted as such.
package checkpoint

import (
	"context"
	"encoding/binary"
	"errors"
	"sync/atomic"

	"smtdram/internal/core"
	"smtdram/internal/runner"
	"smtdram/internal/snap"
	"smtdram/internal/store"
)

// keyPrefix namespaces checkpoint entries inside a store.Store, so a cache
// pointed at the daemon's data directory can never collide with result
// entries (results are keyed by the full fingerprint, checkpoints by the
// warmup prefix; the namespace makes the separation structural).
const keyPrefix = "ckpt|"

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts runs served from a previously captured checkpoint —
	// in-memory, joined in flight, or read back from the store.
	Hits uint64
	// Misses counts warmup phases actually simulated.
	Misses uint64
	// Forks counts measurement phases started from a checkpoint.
	Forks uint64
	// Bypassed counts runs that could not checkpoint and ran plainly.
	Bypassed uint64
	// Evictions counts in-memory entries shed by the cap (SetCap).
	Evictions uint64
	// Entries is the current in-memory entry count (in-flight included).
	Entries int
}

// Cache memoizes warmup checkpoints by warmup-prefix fingerprint.
//
// It is an instance of runner.Memo: concurrent requests for one prefix share
// a single warmup simulation, which survives any one of them giving up.
// Warmups execute on the cache's own worker pool, never on the caller's, so a
// sweep worker blocked on a shared warmup cannot deadlock the pool it runs
// in. The optional store tier persists frames across processes; corrupt or
// missing entries silently fall back to recomputation (the frame's CRC and
// fingerprint are validated on restore, so a bad entry can degrade speed,
// never correctness).
type Cache struct {
	pool *runner.Pool
	memo runner.Memo[string, *core.Checkpoint]

	forks, bypassed atomic.Uint64
}

// New builds an in-memory cache. Attach a persistence tier with Persist.
func New() *Cache {
	return &Cache{pool: runner.New(0)}
}

// Open builds a cache persisted under dir (creating it if needed).
func Open(dir string, fsync store.FsyncPolicy) (*Cache, error) {
	st, err := store.Open(dir, fsync)
	if err != nil {
		return nil, err
	}
	c := New()
	c.Persist(st)
	return c, nil
}

// cfgKey carries the requesting configuration to the store tier, which needs
// a machine of the right shape to trial-restore a read-back frame into.
type cfgKey struct{}

// Persist attaches a backing store as the memo's one tier: captured
// checkpoints are written through, and an in-memory miss consults the store
// before simulating warmup. Install before the first Run; later attachment
// races with in-flight lookups.
func (c *Cache) Persist(st *store.Store) {
	c.memo.Tier = &runner.Tier[string, *core.Checkpoint]{
		// A read-back is only a hit if its frame actually restores: the
		// store's own CRC covers what was written, not that what was written
		// is a decodable checkpoint. Anything else reports corrupt and is
		// recomputed, so a damaged entry degrades speed, never correctness.
		// (The store quarantines entries failing its own CRC itself.)
		Get: func(ctx context.Context, prefix string) (*core.Checkpoint, error) {
			payload, meta, err := st.Get(keyPrefix + prefix)
			if errors.Is(err, store.ErrNotFound) {
				return nil, runner.ErrMiss
			}
			if err != nil {
				return nil, err
			}
			if len(meta) != 8 || binary.LittleEndian.Uint64(meta) == 0 || len(payload) == 0 {
				return nil, errors.New("checkpoint: malformed store entry")
			}
			chk := &core.Checkpoint{Prefix: prefix, Now: binary.LittleEndian.Uint64(meta), Data: payload}
			if _, err := core.NewCheckpointedSimulator(ctx.Value(cfgKey{}).(core.Config), chk); err != nil {
				return nil, err
			}
			return chk, nil
		},
		// Write errors are swallowed: the store degrades to memory-only mode
		// on its own and the cache keeps working from RAM.
		Put: func(prefix string, chk *core.Checkpoint) {
			var meta [8]byte
			binary.LittleEndian.PutUint64(meta[:], chk.Now)
			_ = st.Put(keyPrefix+prefix, chk.Data, meta[:])
		},
	}
}

// SetCap bounds the in-memory tier to n checkpoints with LRU eviction
// (n <= 0 restores the unbounded default). A store-backed cache re-reads
// evicted entries from disk; a memory-only cache re-simulates them.
func (c *Cache) SetCap(n int) { c.memo.SetCap(max(n, 0)) }

// Snapshot returns the cache's counters. Nil-safe (all zeros).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	st := c.memo.Stats()
	return Stats{
		Hits:      st.Hits + st.Joins,
		Misses:    st.Starts,
		Forks:     c.forks.Load(),
		Bypassed:  c.bypassed.Load(),
		Evictions: st.Evictions,
		Entries:   st.Entries,
	}
}

// Run executes cfg, forking from a memoized warmup checkpoint when the
// configuration supports it and running plainly when it does not — or when
// its cycle budget ends inside warmup, where there is no boundary to fork
// from and a plain run reports the cold window. On a nil cache every run is
// plain. The result is byte-identical either way.
func (c *Cache) Run(ctx context.Context, cfg core.Config) (core.Result, error) {
	if c == nil {
		return core.RunContext(ctx, cfg)
	}
	chk, err := c.Get(ctx, cfg)
	switch {
	case errors.Is(err, snap.ErrUnsupported), errors.Is(err, core.ErrWarmupBudget):
		c.bypassed.Add(1)
		return core.RunContext(ctx, cfg)
	case err != nil:
		return core.Result{}, err
	}
	c.forks.Add(1)
	return core.RunFromCheckpoint(ctx, cfg, chk)
}

// Get returns the warmup checkpoint for cfg's prefix, simulating the warmup
// phase only if neither tier holds it. Concurrent Gets for one prefix share a
// single warmup, which keeps running for the others when one caller's ctx is
// cancelled; ctx bounds only this caller's wait.
func (c *Cache) Get(ctx context.Context, cfg core.Config) (*core.Checkpoint, error) {
	if err := core.CheckpointSupported(cfg); err != nil {
		return nil, err
	}
	ctx = context.WithValue(ctx, cfgKey{}, cfg)
	return c.memo.Do(ctx, c.pool, cfg.WarmupFingerprint(), func(ctx context.Context) (*core.Checkpoint, error) {
		return core.WarmupCheckpoint(ctx, cfg)
	})
}
