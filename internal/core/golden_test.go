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
		{"2-thread-ddr-hit-first", two, 271151, 80995, "a4e9153d095e37fc6a9504fadef3620ca345161719a4fd2de13a8ada1db56b55"},
		{"8-thread-rdram-request-based", eight, 1318305, 249307, "2b21adccefd6972c950e37fa6bbc15939fce18a116d3890eb52c4de60fb0fad0"},
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
