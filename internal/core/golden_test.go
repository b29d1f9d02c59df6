package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
	"4-mem-ddr-open-xor/age-based":         {1284, "ca34f696511595a3e42d043a3af06ec2fb29f9ae2ce20f8bb4196176ef7ba808"},
	"4-mem-ddr-open-xor/fcfs":              {1310, "2f752896ae423321320820228f7ebe564e7840aea4345870a85550a845974cbf"},
	"4-mem-ddr-open-xor/hit-first":         {1287, "fa671b33f331321489daec08af457b4d639ff0a629abac053f5b805807498c1d"},
	"4-mem-ddr-open-xor/iq-based":          {1273, "28c1515b8a69ed14e783d17774b0bd6cc8d7185092eb46c05f55d35df2174994"},
	"4-mem-ddr-open-xor/request-based":     {1289, "8d6542e75c8fc361636fc255eee4e8d18a5fb5d82777e06e32a43476a42a43eb"},
	"4-mem-ddr-open-xor/rob-based":         {1291, "823e944054fdaf812b2d0b185f8bd1a9fed77e32f3ecd9105c5b0dfe1f92c541"},
	"8-mem-rdram-close-page/age-based":     {1516, "267d17b804454a9eb7e0b6e053272c0d17f4721c8dc3514177b5397fb37fb0c8"},
	"8-mem-rdram-close-page/fcfs":          {1547, "fe9129f6b4b7c7893be40226f88e8c87c3b64af7f6148e91c53c4d69f0b6e3e1"},
	"8-mem-rdram-close-page/hit-first":     {1528, "a6a0c20587d9ce31ade7f57f10dfa150b1ff22b0dc15d98bd11a9425fafa3667"},
	"8-mem-rdram-close-page/iq-based":      {1536, "907013ee897f58bfb7039a6af07ea6a8e711557d3e2ce368e36146746e7964f9"},
	"8-mem-rdram-close-page/request-based": {1556, "ec61204e090aed7a250728342f864295c9cbe1abe20aa9301878046f8b499dcb"},
	"8-mem-rdram-close-page/rob-based":     {1527, "d563831799589d29f6faa5eedf81b215adffe91d6058494c8b41654bb5b6ef25"},
}

func TestGoldenResults(t *testing.T) {
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
				t.Parallel()
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
