package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/faults"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/snap"
)

// ckptConfigs is the configuration table shared by the checkpoint equivalence
// and byte-stability tests: the default mix, the deepest-skipping serialized
// machine (the restore path must rebuild its ganged close-page controller
// state exactly), a single-app baseline (the shape the figures runner forks
// most), and an unskipped run (checkpoint placement must not depend on the
// two-speed clock).
func ckptConfigs() []struct {
	name string
	cfg  func() Config
} {
	return []struct {
		name string
		cfg  func() Config
	}{
		{"default-mix", func() Config {
			return fastCfg("mcf", "art", "swim", "lucas")
		}},
		{"serialized-fetchstall", func() Config {
			cfg := fastCfg("mcf", "mcf", "mcf", "mcf")
			cfg.Mem.PhysChannels = 4
			cfg.Mem.Gang = 4
			cfg.Mem.PageMode = dram.ClosePage
			cfg.Mem.Policy = memctrl.FCFS
			cfg.Mem.QueueDepth = 8
			cfg.Mem.MaxInFlight = 1
			cfg.CPU.Policy = cpu.FetchStall
			return cfg
		}},
		{"single-app", func() Config {
			return fastCfg("mcf")
		}},
		{"unskipped", func() Config {
			cfg := fastCfg("art", "mcf")
			cfg.DisableClockSkip = true
			return cfg
		}},
	}
}

// TestCheckpointEquivalence is the tentpole invariant: a run forked from a
// warmup checkpoint produces results byte-identical to an uninterrupted run —
// the same Result struct, the same JSON bytes, and the same skip accounting —
// and forking twice from one checkpoint neither diverges nor mutates the
// checkpoint's frame.
func TestCheckpointEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range ckptConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cold, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := cold.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}

			chk, err := WarmupCheckpoint(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if chk.Now == 0 || chk.Prefix != cfg.WarmupFingerprint() {
				t.Fatalf("malformed checkpoint: now=%d prefix=%q", chk.Now, chk.Prefix)
			}
			frame := append([]byte(nil), chk.Data...)

			warm, err := NewCheckpointedSimulator(cfg, chk)
			if err != nil {
				t.Fatal(err)
			}
			warmRes, err := warm.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}

			coldJSON, _ := json.Marshal(coldRes)
			warmJSON, _ := json.Marshal(warmRes)
			if !bytes.Equal(coldJSON, warmJSON) {
				t.Fatalf("restored run diverged from cold run\ncold: %s\nwarm: %s", coldJSON, warmJSON)
			}
			if cs, ws := cold.SkipStats(), warm.SkipStats(); cs != ws {
				t.Fatalf("skip accounting diverged: cold=%+v warm=%+v", cs, ws)
			}

			// Second fork from the same checkpoint: identical again, and the
			// frame must be exactly as it was before either restore.
			againRes, err := RunFromCheckpoint(ctx, cfg, chk)
			if err != nil {
				t.Fatal(err)
			}
			againJSON, _ := json.Marshal(againRes)
			if !bytes.Equal(coldJSON, againJSON) {
				t.Fatalf("second fork diverged\ncold: %s\nfork: %s", coldJSON, againJSON)
			}
			if !bytes.Equal(frame, chk.Data) {
				t.Fatal("restoring mutated the checkpoint frame")
			}
		})
	}
}

// TestCheckpointReencodeByteStable is the encode→decode→encode golden
// property: re-serializing a freshly restored machine reproduces the original
// frame byte for byte. This is what makes checkpoints content-addressable.
func TestCheckpointReencodeByteStable(t *testing.T) {
	ctx := context.Background()
	for _, tc := range ckptConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			chk, err := WarmupCheckpoint(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewCheckpointedSimulator(cfg, chk)
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chk.Data, again) {
				t.Fatalf("re-encode is not byte-stable: %d vs %d bytes", len(chk.Data), len(again))
			}
		})
	}
}

// TestCheckpointLockstepRestoredVsCold extends the lockstep oracle to the
// restore path: a machine decoded from a warmup checkpoint must hold the exact
// CPU fingerprint of a cold twin ticked plainly to the same cycle, and stay in
// fingerprint lockstep with it cycle by cycle through the measurement phase.
// Where the equivalence test compares final Results, this pins down *which
// cycle* a restore bug first acts at.
func TestCheckpointLockstepRestoredVsCold(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"default-mix", ckptConfigs()[0].cfg},
		{"serialized-fetchstall", ckptConfigs()[1].cfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			chk, err := WarmupCheckpoint(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewCheckpointedSimulator(cfg, chk)
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for c := uint64(1); c <= chk.Now; c++ {
				u.q.RunUntil(c)
				u.cpu.Tick(c)
			}
			if a, b := s.cpu.Fingerprint(), u.cpu.Fingerprint(); a != b {
				t.Fatalf("restored state diverges at the warmup boundary (cycle %d)\nrestored: %s\ncold:     %s", chk.Now, a, b)
			}
			const extra = 100_000
			for c := chk.Now + 1; c <= chk.Now+extra; c++ {
				s.q.RunUntil(c)
				s.cpu.Tick(c)
				u.q.RunUntil(c)
				u.cpu.Tick(c)
				if a, b := s.cpu.Fingerprint(), u.cpu.Fingerprint(); a != b {
					t.Fatalf("diverged at cycle %d (%d past the boundary)\nrestored: %s\ncold:     %s", c, c-chk.Now, a, b)
				}
				if s.cpu.AllFinished() {
					return
				}
			}
		})
	}
}

// TestCheckpointUnsupported pins the bypass gates: configurations the codec
// cannot represent are rejected up front with snap.ErrUnsupported, so callers
// fall back to a plain run instead of capturing a lying checkpoint.
func TestCheckpointUnsupported(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-warmup", func(c *Config) { c.WarmupInstr = 0 }},
		{"fault-plan", func(c *Config) {
			c.Faults = &faults.Plan{BitFlipRate: 5e-2, Seed: 11}
		}},
		{"observer", func(c *Config) {
			c.Observe = func() *obs.Observer { return obs.New(obs.Options{Profile: true}) }
		}},
		{"trace-sink", func(c *Config) {
			c.Mem.Trace = func(memctrl.TraceEvent) {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg("mcf")
			tc.mutate(&cfg)
			if err := CheckpointSupported(cfg); !errors.Is(err, snap.ErrUnsupported) {
				t.Fatalf("CheckpointSupported = %v, want snap.ErrUnsupported", err)
			}
			if _, err := WarmupCheckpoint(ctx, cfg); !errors.Is(err, snap.ErrUnsupported) {
				t.Fatalf("WarmupCheckpoint = %v, want snap.ErrUnsupported", err)
			}
		})
	}
}

// TestCheckpointRestoreRejects exercises the restore path's defenses: damaged
// frames and mismatched configurations fail with the right typed error, never
// a half-restored machine.
func TestCheckpointRestoreRejects(t *testing.T) {
	ctx := context.Background()
	cfg := fastCfg("mcf", "art")
	chk, err := WarmupCheckpoint(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	damaged := func(mutate func([]byte) []byte) *Checkpoint {
		data := mutate(append([]byte(nil), chk.Data...))
		return &Checkpoint{Prefix: chk.Prefix, Now: chk.Now, Data: data}
	}

	t.Run("bit-flip", func(t *testing.T) {
		bad := damaged(func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
		if _, err := NewCheckpointedSimulator(cfg, bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("bit-flipped frame: got %v, want snap.ErrCorrupt", err)
		}
	})
	t.Run("truncated-short", func(t *testing.T) {
		bad := damaged(func(b []byte) []byte { return b[:5] })
		if _, err := NewCheckpointedSimulator(cfg, bad); !errors.Is(err, snap.ErrTruncated) {
			t.Fatalf("short frame: got %v, want snap.ErrTruncated", err)
		}
	})
	t.Run("truncated-tail", func(t *testing.T) {
		// Dropping the tail leaves a full-length-looking frame whose checksum
		// no longer matches: corruption, caught before any field is read.
		bad := damaged(func(b []byte) []byte { return b[:len(b)-1] })
		if _, err := NewCheckpointedSimulator(cfg, bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("truncated frame: got %v, want snap.ErrCorrupt", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		// A well-formed frame from a future codec: bump the version byte and
		// re-seal the checksum so only the version check can object.
		bad := damaged(func(b []byte) []byte {
			body := b[:len(b)-4]
			body[4]++
			sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
			return b
		})
		if _, err := NewCheckpointedSimulator(cfg, bad); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("version-skewed frame: got %v, want snap.ErrVersion", err)
		}
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := fastCfg("swim", "lucas")
		if _, err := NewCheckpointedSimulator(other, chk); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("mismatched configuration: got %v, want snap.ErrCorrupt", err)
		}
	})
}
