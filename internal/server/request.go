package server

import (
	"context"
	"fmt"
	"io"

	"smtdram/internal/addrmap"
	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/figures"
	"smtdram/internal/memctrl"
	"smtdram/internal/report"
	"smtdram/internal/workload"
)

// SimRequest is one simulation described by names — the wire form of a
// submission, and the struct cmd/smtdram and cmd/tracedump fill from their
// flags. Config is the only function that turns those names into a
// core.Config, so a request that mirrors a CLI invocation builds the
// identical machine: the root of the byte-identical guarantee. Zero values
// mean core.DefaultConfig's.
type SimRequest struct {
	// Mix names a Table 2 mix (overrides Apps), Apps lists one application
	// per hardware thread.
	Mix  string   `json:"mix,omitempty"`
	Apps []string `json:"apps,omitempty"`
	// Channels (default 2) and Gang (default 1) shape the memory system.
	Channels int `json:"channels,omitempty"`
	Gang     int `json:"gang,omitempty"`
	// DRAM is "ddr" (default) or "rdram".
	DRAM string `json:"dram,omitempty"`
	// Scheme is "xor" (default) or "page".
	Scheme string `json:"scheme,omitempty"`
	// PageMode is "open" (default) or "close".
	PageMode string `json:"pagemode,omitempty"`
	// Policy is the access-scheduling policy (default "hit-first").
	Policy string `json:"policy,omitempty"`
	// Fetch is the SMT fetch policy (default "dwarn").
	Fetch string `json:"fetch,omitempty"`
	// Warmup and Target are per-thread instruction counts (defaults 100 000
	// and 200 000). Pointers so an explicit 0 warmup survives.
	Warmup *uint64 `json:"warmup,omitempty"`
	Target *uint64 `json:"target,omitempty"`
	// Seed drives the workload generators (default 42).
	Seed *int64 `json:"seed,omitempty"`
	// Faults is a fault-injection spec in the CLI's -faults syntax.
	Faults string `json:"faults,omitempty"`
	// Trace additionally records the simulator's cycle-domain request
	// lifecycle, retrievable merged with the job's wall-clock spans at
	// GET /v1/jobs/{id}/trace. Tracing is observation-only — the result
	// bytes are identical either way — but traced and untraced submissions
	// get separate cache/dedup keys so an untraced cached result is never
	// served where a trace was asked for.
	Trace bool `json:"trace,omitempty"`
}

// named resolves one optional enum name into dst; the empty name keeps the
// default already there.
func named[T any](dst *T, name string, parse func(string) (T, error)) error {
	if name == "" {
		return nil
	}
	v, err := parse(name)
	if err == nil {
		*dst = v
	}
	return err
}

// Config materializes the request into a validated core.Config. Every error
// it returns means the request is wrong — a usage error on a command line, a
// 400 over HTTP — never that a simulation failed.
func (r SimRequest) Config() (core.Config, error) {
	names := r.Apps
	if r.Mix != "" {
		m, err := workload.MixByName(r.Mix)
		if err != nil {
			return core.Config{}, err
		}
		names = m.Apps
	}
	if len(names) == 0 {
		return core.Config{}, fmt.Errorf("server: request names no applications (set apps or mix)")
	}
	// Resolve every app name now so a typo is a 400, not a failed job.
	for _, name := range names {
		if _, err := workload.ByName(name); err != nil {
			return core.Config{}, err
		}
	}
	cfg := core.DefaultConfig(names...)
	if r.Warmup != nil {
		cfg.WarmupInstr = *r.Warmup
	}
	if r.Target != nil {
		cfg.TargetInstr = *r.Target
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.Channels != 0 {
		cfg.Mem.PhysChannels = r.Channels
	}
	if r.Gang != 0 {
		cfg.Mem.Gang = r.Gang
	}
	for _, err := range []error{
		named(&cfg.Mem.Kind, r.DRAM, core.ParseDRAMKind),
		named(&cfg.Mem.Scheme, r.Scheme, addrmap.ParseScheme),
		named(&cfg.Mem.PageMode, r.PageMode, dram.ParsePageMode),
		named(&cfg.Mem.Policy, r.Policy, memctrl.ParsePolicy),
		named(&cfg.CPU.Policy, r.Fetch, cpu.ParseFetchPolicy),
	} {
		if err != nil {
			return core.Config{}, err
		}
	}
	var err error
	if cfg.Faults, err = faults.Parse(r.Faults); err != nil {
		return core.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// simShardKey is the cache/dedup/routing key for one simulation
// configuration. Traced submissions get a separate key: the result bytes are
// identical, but a trace must reach a real run to collect cycle events.
func simShardKey(cfg core.Config, traced bool) string {
	fp := "sim|" + cfg.Fingerprint()
	if traced {
		fp += "|traced"
	}
	return fp
}

// ShardKey returns the key the daemon caches, dedups, and — in a fleet —
// routes this request by: the same Config.Fingerprint-derived string at
// every layer, which is what keeps LRU locality and checkpoint-prefix reuse
// intact across scale-out. The coordinator calls this to pick a ring owner
// without running anything.
func (r SimRequest) ShardKey() (string, error) {
	cfg, err := r.Config()
	if err != nil {
		return "", err
	}
	return simShardKey(cfg, r.Trace), nil
}

// FigRequest submits one figure sweep from the paper's evaluation.
type FigRequest struct {
	// Fig selects the sweep by its figures.Catalog name.
	Fig string `json:"fig"`
	// Warmup, Target, Seed mirror figures.Options (0 = that package's
	// defaults: 100k/100k/42).
	Warmup uint64 `json:"warmup,omitempty"`
	Target uint64 `json:"target,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// key is the result-cache key. Jobs is deliberately absent: figure output is
// byte-identical at any worker count, so all concurrency levels share one
// cache entry.
func (r FigRequest) key() string {
	return fmt.Sprintf("fig=%s warm=%d target=%d seed=%d", r.Fig, r.Warmup, r.Target, r.Seed)
}

// ShardKey is the figure sweep's cache/routing key (see SimRequest.ShardKey).
func (r FigRequest) ShardKey() (string, error) {
	if err := r.validate(); err != nil {
		return "", err
	}
	return "fig|" + r.key(), nil
}

// validate rejects a figure name the catalog lacks without running anything.
func (r FigRequest) validate() error {
	_, err := figures.ByName(r.Fig)
	return err
}

// run executes the figure sweep with the given internal parallelism, writing
// the rendered table to w. ctx aborts the sweep: queued simulations never
// run, and running ones stop at their next watchdog boundary. ckpts is the
// daemon's warmup-checkpoint cache (nil runs every point cold); output is
// byte-identical either way.
func (r FigRequest) run(ctx context.Context, jobs int, w io.Writer, ckpts *checkpoint.Cache) error {
	fig, err := figures.ByName(r.Fig)
	if err != nil {
		return err
	}
	g, err := fig.Run(figures.Options{Warmup: r.Warmup, Target: r.Target, Seed: r.Seed, Jobs: jobs, Ctx: ctx, Checkpoints: ckpts})
	if err != nil {
		return err
	}
	return g.Table().Render(w, report.Text)
}
