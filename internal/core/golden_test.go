package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/dram"
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
		{"2-thread-ddr-hit-first", two, 271151, 79649, "c8eed2800bcaea83c8d921d5e9d84cd97814fe3abdae7da78375aed12aa15317"},
		{"8-thread-rdram-request-based", eight, 1318305, 248937, "0750dc54cbbb66f508987290d85915de36b0648f8e99901fc44166b322c19f88"},
	}
}

func TestCheckpointGoldenFrames(t *testing.T) { checkGoldenFrames(t) }

// TestCheckpointGoldenFramesInline pins the same frames with one P: the
// instruction supply then has no helper and fills every block inline, through
// the same fill.
func TestCheckpointGoldenFramesInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkGoldenFrames(t)
}

func checkGoldenFrames(t *testing.T) {
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

// goldenResults pins json.Marshal(Result) by length and SHA-256 for every
// scheduling policy on two machines: four MEM threads on DDR (open page, XOR
// mapping) and eight on Direct RDRAM (close page, page mapping — the machine
// of the mem8_rdram_close benchmark). The figures page runs FCFS on DDR only,
// so these are the one check that every policy's bytes on RDRAM close page
// stay put under a refactor.
var goldenResults = map[string]struct {
	size   int
	sha256 string
}{
	"4-mem-ddr-open-xor/age-based":         {1268, "8574c353f7e0e1c3783b8726e987f3d1b0874282ce69fa4c3e5998a30254a977"},
	"4-mem-ddr-open-xor/fcfs":              {1294, "158c08315f16b2e4e8196a91d2c127a7c1697977e82255b0669d7f9c42031312"},
	"4-mem-ddr-open-xor/hit-first":         {1271, "1cda277ee2842f7fc8a6f1a4880f091885baf30226c463a74bf1d69914c1e43f"},
	"4-mem-ddr-open-xor/iq-based":          {1257, "d16c2e7cd31ed21f2f8b429537218a689370970fc77b45446dbf2a3905c43096"},
	"4-mem-ddr-open-xor/request-based":     {1273, "bc3c03e53d29ae3f53e3e799cbd2e41b90e92a539145ff12e7649f8d786458d5"},
	"4-mem-ddr-open-xor/rob-based":         {1275, "ec3729641f7a19ef9b3eecc3799e7100a8ec73d83d5b9e58caeab141a503cd3b"},
	"8-mem-rdram-close-page/age-based":     {1500, "0b27c74ab815979502bf2b3ddd9835ca9264a274ac4dcf20ccf63d91a25d0863"},
	"8-mem-rdram-close-page/fcfs":          {1531, "4e266d49f66b35963ab1b0e4b9fba9cd2c57d1ccaa9cef6916d91e7e4681530a"},
	"8-mem-rdram-close-page/hit-first":     {1512, "f80e7a56c3ca8cc6b3afb026fb8d5bc2ae4a1b378e058508702346fa52f2df61"},
	"8-mem-rdram-close-page/iq-based":      {1520, "d461b43047a04edc7c48c9e4c63f68cf0d527d0f628a5cb27a28d4956ec72f34"},
	"8-mem-rdram-close-page/request-based": {1540, "bea7fb54f7dba1e919c53a2c3de7827431e1f30d26b8f9ee5bd293a411dbdabe"},
	"8-mem-rdram-close-page/rob-based":     {1511, "339cfdf376b86ea51e7ed113fafe190e5b28bbd0ce609862a525e72c15530ea6"},
}

func TestGoldenResults(t *testing.T) { checkGoldenResults(t, true) }

// TestGoldenResultsInline pins the same bytes with one P, where every block
// of instructions is filled inline. Its cases run one after another: the
// setting is restored only once they are done.
func TestGoldenResultsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkGoldenResults(t, false)
}

func checkGoldenResults(t *testing.T, parallel bool) {
	four, eight := mixCfg(t, "4-MEM", 10000), mixCfg(t, "8-MEM", 10000)
	four.TargetInstr, eight.TargetInstr = 10000, 10000
	eight.Mem.Kind, eight.Mem.PageMode, eight.Mem.Scheme = RDRAM, dram.ClosePage, addrmap.Page
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"4-mem-ddr-open-xor", four}, {"8-mem-rdram-close-page", eight}} {
		for _, p := range memctrl.Policies() {
			name := m.name + "/" + p.String()
			t.Run(name, func(t *testing.T) {
				if parallel {
					t.Parallel()
				}
				cfg := m.cfg
				cfg.Mem.Policy = p
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				want := goldenResults[name]
				if got := hex.EncodeToString(sum[:]); len(b) != want.size || got != want.sha256 {
					t.Errorf("Result bytes moved; got\n\t%q: {%d, %q},\nwant {%d, %q}", name, len(b), got, want.size, want.sha256)
				}
			})
		}
	}
}
