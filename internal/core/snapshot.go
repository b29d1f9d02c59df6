package core

// Warmup checkpointing (DESIGN §15). A Simulator's full state — CPU, cache
// hierarchy, memory backend, controller, DRAM devices, event queue, and
// workload generators — serializes into one CRC-framed binary blob at the
// warmup boundary (the cycle the last thread crosses WarmupInstr). A sweep
// point restored from that blob produces byte-identical results to an
// uninterrupted run, so drivers run warmup once per warmup-prefix fingerprint
// and fork every sweep point from the checkpoint.

import (
	"context"
	"errors"
	"fmt"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
)

const (
	ckptMagic   = "SMTC"
	ckptVersion = 11         // 11: a cache level has no prefetch state, a line word no prefetched flag, and a request no critical bit
	sectionSim  = 0x434F5245 // "CORE"
)

// ErrWarmupBudget is WarmupCheckpoint's error for a configuration whose cycle
// budget ends before every thread has warmed up: there is no boundary to
// capture. A plain run of it reports the cold-window, timed-out Result.
var ErrWarmupBudget = errors.New("core: cycle budget ends inside warmup")

// Checkpoint is a machine frozen at its warmup boundary.
type Checkpoint struct {
	// Prefix is the warmup-prefix fingerprint (Config.WarmupFingerprint) the
	// checkpoint was taken under; restore validates it against the target
	// configuration.
	Prefix string
	// Now is the cycle the last thread crossed WarmupInstr.
	Now uint64
	// Data is the versioned, CRC-framed machine state.
	Data []byte
}

// CheckpointSupported reports whether cfg can participate in warmup
// checkpointing. Unsupported configurations (no warmup phase, fault plans,
// external instruction sources, attached observers) return a
// snap.ErrUnsupported-wrapped explanation; callers fall back to a plain run.
func CheckpointSupported(cfg Config) error {
	switch {
	case cfg.WarmupInstr == 0:
		return fmt.Errorf("%w: no warmup phase to checkpoint", snap.ErrUnsupported)
	case !cfg.Faults.Empty():
		return fmt.Errorf("%w: fault plans arm mid-run events", snap.ErrUnsupported)
	case cfg.Sources != nil:
		return fmt.Errorf("%w: externally supplied instruction sources", snap.ErrUnsupported)
	case cfg.Observe != nil:
		return fmt.Errorf("%w: observer state is not serializable", snap.ErrUnsupported)
	}
	return nil
}

// WarmupCheckpoint runs cfg's warmup phase and captures the machine at the
// exact cycle measurement would begin. The returned checkpoint is reusable by
// every configuration sharing cfg's WarmupFingerprint.
func WarmupCheckpoint(ctx context.Context, cfg Config) (*Checkpoint, error) {
	if err := CheckpointSupported(cfg); err != nil {
		return nil, err
	}
	s, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	k := s.newClock()
	if err := k.until(ctx, s.cpu.AllWarmed); err != nil {
		return nil, err
	}
	if !s.cpu.AllWarmed() {
		return nil, ErrWarmupBudget
	}
	// The machine is frozen after the boundary cycle's events and Tick and
	// before the warmup transition, which the restored run performs.
	s.at = k.now
	data, err := s.encode()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{Prefix: cfg.WarmupFingerprint(), Now: s.at, Data: data}, nil
}

// NewCheckpointedSimulator builds the machine described by cfg and restores
// chk into it, ready for RunContext to continue from the warmup boundary.
func NewCheckpointedSimulator(cfg Config, chk *Checkpoint) (*Simulator, error) {
	if err := CheckpointSupported(cfg); err != nil {
		return nil, err
	}
	s, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.decode(chk.Data); err != nil {
		return nil, err
	}
	return s, nil
}

// RunFromCheckpoint restores chk into a fresh machine built from cfg and runs
// the measurement phase. The result is byte-identical to RunContext on the
// same cfg (the equivalence suite and the lockstep oracle assert this).
func RunFromCheckpoint(ctx context.Context, cfg Config, chk *Checkpoint) (Result, error) {
	s, err := NewCheckpointedSimulator(cfg, chk)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}

// encode seals the machine's walk into a checkpoint frame, written from
// settled generators (a no-op outside the clock, where they always are).
func (s *Simulator) encode() ([]byte, error) {
	s.sup.Stop()
	w := &snap.Writer{}
	if err := s.walk(snap.Saving(w)); err != nil {
		return nil, err
	}
	return w.Frame(ckptMagic, ckptVersion), nil
}

// decode rebuilds the machine from a checkpoint frame.
func (s *Simulator) decode(data []byte) error {
	r, err := snap.NewReader(data, ckptMagic, ckptVersion)
	if err != nil {
		return err
	}
	if err := s.walk(snap.Loading(r)); err != nil {
		return err
	}
	r.Done()
	s.mb.FinishRestore()
	return r.Err()
}

// walk is the checkpoint format: the run-loop registers that survive the
// pause (the boundary cycle and the skip accounting), then the full machine.
// Component order follows reference direction, so that loading always finds a
// reference's target already back: the CPU first (its fill carriers resolve
// from pools alone), then the cache levels top-down (a level's MSHR waiters
// point at the level above), then the memory backend, the controller (queued
// entries reference backend requests), the event queue (references
// everything), and the workload generators.
func (s *Simulator) walk(c *snap.Codec) error {
	c.Marker(sectionSim)
	want := s.cfg.WarmupFingerprint()
	prefix := want
	c.String(&prefix)
	c.U64(&s.at)
	c.U64(&s.skip.Skipped)
	c.U64(&s.skip.Segments)
	c.U64(&s.skip.Longest)
	switch {
	case c.Err() != nil:
	case prefix != want:
		c.Fail(fmt.Errorf("%w: checkpoint prefix %q does not match configuration %q", snap.ErrCorrupt, prefix, want))
	case s.at == 0 || s.at > s.cfg.maxCycles():
		c.Fail(fmt.Errorf("%w: checkpoint cycle %d outside the run's budget", snap.ErrCorrupt, s.at))
	}
	if err := c.Err(); err != nil {
		return err // before a frame for another machine is walked into this one
	}
	if err := s.cpu.Snap(c); err != nil {
		return err
	}
	for _, l := range []*cache.Level{s.l1i, s.l1d, s.l2, s.l3} {
		if err := l.Snap(c, s.resolveRef); err != nil {
			return err
		}
	}
	if err := s.mb.Snap(c, s.resolveRef); err != nil {
		return err
	}
	if err := s.ctrl.Snap(c, s.resolveRef); err != nil {
		return err
	}
	if err := s.q.Snap(c, s.resolveRef); err != nil {
		return err
	}
	c.Fixed(len(s.gens), "generators")
	for _, g := range s.gens {
		if err := g.Snap(c); err != nil {
			return err
		}
	}
	return c.Err()
}

// resolveRef is the production event.Resolver: it dispatches a decoded
// reference to the component that owns its kind.
func (s *Simulator) resolveRef(ref *snap.Ref, role uint8) (any, error) {
	switch ref.Kind {
	case snap.KCPULoadFill, snap.KCPUIFill, snap.KCPUBranch:
		return s.cpu.ResolveRef(ref, role)
	case snap.KCacheMSHR, snap.KCacheWBRetry:
		if len(ref.Args) < 1 {
			return nil, fmt.Errorf("%w: cache ref missing level id", snap.ErrCorrupt)
		}
		levels := [4]*cache.Level{s.l1i, s.l1d, s.l2, s.l3}
		id := ref.Args[0]
		if id >= uint64(len(levels)) {
			return nil, fmt.Errorf("%w: cache ref level id %d out of range", snap.ErrCorrupt, id)
		}
		return levels[id].ResolveRef(ref)
	case snap.KMemBackend, snap.KMemBackendReq:
		return s.mb.ResolveRef(ref, s.resolveRef)
	case snap.KMemEntry, snap.KMemRetry:
		return s.ctrl.ResolveRef(ref, s.resolveRef)
	default:
		return nil, fmt.Errorf("%w: unknown ref kind %d", snap.ErrCorrupt, ref.Kind)
	}
}
