package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smtdram/internal/memctrl"
)

// goldenFrames are two warmup checkpoints pinned by length and digest: the
// default two-thread DDR machine, and eight threads on Direct RDRAM under the
// request-based scheduler. The format is what checkpoints already on disk
// were written in, so a change to a snapshot walk that moves a byte must say
// so — by bumping ckptVersion, which turns those files into misses instead of
// mis-restores — and then re-pin.
func goldenFrames() []struct {
	name   string
	cfg    Config
	now    uint64
	size   int
	sha256 string
} {
	two := DefaultConfig("mcf", "ammp")
	eight := DefaultConfig("mcf", "ammp", "swim", "lucas", "gzip", "bzip2", "eon", "applu")
	eight.Mem.Kind = RDRAM
	eight.Mem.Policy = memctrl.RequestBased
	for _, cfg := range []*Config{&two, &eight} {
		cfg.WarmupInstr, cfg.TargetInstr = 30000, 20000
	}
	return []struct {
		name   string
		cfg    Config
		now    uint64
		size   int
		sha256 string
	}{
		{"2-thread-ddr-hit-first", two, 271151, 81138, "e70c09644b7562e3b8fc7dd9212d64a8d11c44a3bbb4614f09c861b55d1e3bca"},
		{"8-thread-rdram-request-based", eight, 1318305, 249259, "614dffed42f24cef64708ccf1e2f91142b568170464914da45fea04472678b94"},
	}
}

func TestCheckpointGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.name, func(t *testing.T) {
			chk, err := WarmupCheckpoint(context.Background(), g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(chk.Data)
			if got := hex.EncodeToString(sum[:]); chk.Now != g.now || len(chk.Data) != g.size || got != g.sha256 {
				t.Fatalf("format changed: bump ckptVersion and re-pin\n got: now=%d, %d bytes, sha256 %s\nwant: now=%d, %d bytes, sha256 %s",
					chk.Now, len(chk.Data), got, g.now, g.size, g.sha256)
			}
		})
	}
}
