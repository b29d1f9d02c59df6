package core

import (
	"testing"

	"smtdram/internal/addrmap"
	"smtdram/internal/cpu"
	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
)

// fastCfg is a quick-running configuration for tests.
func fastCfg(apps ...string) Config {
	cfg := DefaultConfig(apps...)
	cfg.WarmupInstr = 20_000
	cfg.TargetInstr = 30_000
	return cfg
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig("mcf").Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no apps", func(c *Config) { c.Apps = nil }},
		{"zero target", func(c *Config) { c.TargetInstr = 0 }},
		{"bad cpu", func(c *Config) { c.CPU.IntIQ = 0 }},
		{"issue queue past a uint16 index", func(c *Config) { c.CPU.IntIQ, c.CPU.FPIQ = 1<<16-32, 32 }},
		{"bad gang", func(c *Config) { c.Mem.Gang = 3 }},
		{"rdram ganged", func(c *Config) { c.Mem.Kind = RDRAM; c.Mem.Gang = 2 }},
		{"65 threads", func(c *Config) { c.Apps = make([]string, 65) }},
		{"3 channels", func(c *Config) { c.Mem.PhysChannels = 3 }},
		{"12 channels ganged to 6", func(c *Config) { c.Mem.PhysChannels, c.Mem.Gang = 12, 2 }},
		{"2^40 channels", func(c *Config) { c.Mem.PhysChannels = 1 << 40 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig("mcf")
		c.mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted bad config", c.name)
		}
	}
	if _, err := NewSimulator(Config{}); err == nil {
		t.Fatal("NewSimulator accepted empty config")
	}
	if _, err := Run(fastCfg("nosuchapp")); err == nil {
		t.Fatal("Run accepted unknown application")
	}
}

func TestGeometryDerivation(t *testing.T) {
	m := MemConfig{Kind: DDR, PhysChannels: 8, Gang: 2}
	g, err := m.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.Channels != 4 || g.ChipsPerChannel != 1 || g.BanksPerChip != 4 {
		t.Fatalf("8C-2G DDR geometry = %+v", g)
	}
	p, err := m.Params()
	if err != nil {
		t.Fatal(err)
	}
	// Ganged width 32B: a 64B line takes one DDR bus clock = 15 cycles.
	if p.Burst != 15 {
		t.Fatalf("ganged burst = %d, want 15", p.Burst)
	}

	r := MemConfig{Kind: RDRAM, PhysChannels: 2, Gang: 1}
	g, err = r.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalBanks() != 2*4*32 {
		t.Fatalf("RDRAM total banks = %d, want 256", g.TotalBanks())
	}
}

func TestParseDRAMKind(t *testing.T) {
	if k, err := ParseDRAMKind("rdram"); err != nil || k != RDRAM {
		t.Fatalf("ParseDRAMKind(rdram) = %v, %v", k, err)
	}
	if k, err := ParseDRAMKind("DDR"); err != nil || k != DDR {
		t.Fatalf("ParseDRAMKind(DDR) = %v, %v", k, err)
	}
	if _, err := ParseDRAMKind("sram"); err == nil {
		t.Fatal("ParseDRAMKind accepted sram")
	}
	if DDR.String() != "ddr" || RDRAM.String() != "rdram" {
		t.Fatal("DRAMKind strings wrong")
	}
}

func TestRunSingleThread(t *testing.T) {
	cfg := fastCfg("gzip")
	cfg.WarmupInstr = 100_000 // gzip's stream pools need a full lap to warm
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("gzip timed out")
	}
	if len(res.IPC) != 1 || res.IPC[0] <= 0.5 {
		t.Fatalf("gzip IPC = %v, want > 0.5", res.IPC)
	}
	if res.MemReadsPer100Inst > 0.3 {
		t.Fatalf("gzip generated %.2f DRAM reads/100 instr, want ≈0 (cache-resident)", res.MemReadsPer100Inst)
	}
	// The warmup snapshot lands mid-commit-burst, so the measured window can
	// undershoot the target by up to a commit width.
	if res.Committed[0] < 30_000-uint64(cfg.CPU.CommitWidth) {
		t.Fatalf("committed %d below target", res.Committed[0])
	}
	if len(res.Caches) != 4 {
		t.Fatalf("expected 4 cache snapshots, got %d", len(res.Caches))
	}
}

func TestRunMemBoundThread(t *testing.T) {
	res, err := Run(fastCfg("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemReadsPer100Inst < 2 {
		t.Fatalf("mcf generated %.2f DRAM reads/100, want memory-bound behaviour", res.MemReadsPer100Inst)
	}
	if res.IPC[0] > 0.8 {
		t.Fatalf("mcf IPC %.2f too high for a memory-bound app", res.IPC[0])
	}
	if res.AvgReadLatency < 100 {
		t.Fatalf("avg DRAM read latency %.0f implausibly low", res.AvgReadLatency)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(fastCfg("gzip", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastCfg("gzip", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.MemReads != b.MemReads {
		t.Fatalf("same seed produced different runs: %d/%d cycles, %d/%d reads",
			a.Cycles, b.Cycles, a.MemReads, b.MemReads)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("thread %d IPC differs: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
	c := fastCfg("gzip", "mcf")
	c.Seed = 7
	d, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles == a.Cycles && d.MemReads == a.MemReads {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPerfectL3RemovesDRAMTraffic(t *testing.T) {
	cfg := fastCfg("mcf", "ammp")
	cfg.PerfectL3 = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemReads != 0 {
		t.Fatalf("perfect L3 still produced %d DRAM reads", res.MemReads)
	}
	real, err := Run(fastCfg("mcf", "ammp"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= real.TotalIPC() {
		t.Fatalf("perfect L3 (%.3f) not faster than realistic memory (%.3f)",
			res.TotalIPC(), real.TotalIPC())
	}
}

func TestPerfectHierarchyOrdering(t *testing.T) {
	// CPI(perfectL1) ≤ CPI(perfectL2) ≤ CPI(perfectL3) ≤ CPI(real), the
	// invariant the Section 4.2 breakdown rests on.
	var last float64
	for i, mut := range []func(*Config){
		func(c *Config) { c.PerfectL1 = true },
		func(c *Config) { c.PerfectL2 = true },
		func(c *Config) { c.PerfectL3 = true },
		func(c *Config) {},
	} {
		cfg := fastCfg("equake")
		mut(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cpi := 1 / res.IPC[0]
		if cpi < last*0.95 { // 5% statistical tolerance
			t.Fatalf("step %d: CPI %.3f < previous %.3f: hierarchy ordering violated", i, cpi, last)
		}
		if cpi > last {
			last = cpi
		}
	}
}

func TestCPIBreakdown(t *testing.T) {
	b, err := CPIBreakdown(fastCfg("swim"), "swim")
	if err != nil {
		t.Fatal(err)
	}
	if b.Proc <= 0 {
		t.Fatalf("CPIproc = %v, want > 0", b.Proc)
	}
	if b.Mem <= 0 {
		t.Fatalf("swim CPImem = %v, want > 0 (streaming app)", b.Mem)
	}
	if b.Total() < b.Proc {
		t.Fatal("total CPI below CPIproc")
	}
}

func TestWeightedSpeedupAndCache(t *testing.T) {
	cache := map[string]float64{}
	ws, res, err := WeightedSpeedup(fastCfg("gzip", "bzip2"), cache)
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0.5 || ws > 2.0 {
		t.Fatalf("2-ILP weighted speedup = %.3f, want in (0.5, 2]", ws)
	}
	if len(cache) != 2 {
		t.Fatalf("baseline cache holds %d entries, want 2", len(cache))
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("no throughput")
	}
	// Cached second call must not change the answer.
	ws2, _, err := WeightedSpeedup(fastCfg("gzip", "bzip2"), cache)
	if err != nil {
		t.Fatal(err)
	}
	if ws != ws2 {
		t.Fatalf("cached WS differs: %v vs %v", ws, ws2)
	}
}

// A baseline cache shared across machines and lengths must only ever hand a
// run the baselines of its own machine: each call answers as an uncached one.
func TestWeightedSpeedupCacheKeyedByMachine(t *testing.T) {
	short := fastCfg("gzip", "bzip2")
	short.TargetInstr = 20_000
	long := short
	long.TargetInstr = 40_000
	wide := short
	wide.Mem.PhysChannels = 4
	cache := map[string]float64{}
	for _, cfg := range []Config{short, long, wide} {
		cached, _, err := WeightedSpeedup(cfg, cache)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := WeightedSpeedup(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cached != fresh {
			t.Fatalf("%s: shared-cache WS %v, uncached %v", cfg.Fingerprint(), cached, fresh)
		}
	}
	if len(cache) != 6 {
		t.Fatalf("baseline cache holds %d entries, want 6", len(cache))
	}
}

func TestMoreChannelsHelpMEM(t *testing.T) {
	cfg2 := fastCfg("mcf", "ammp", "swim", "lucas")
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := fastCfg("mcf", "ammp", "swim", "lucas")
	cfg8.Mem.PhysChannels = 8
	res8, err := Run(cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if res8.TotalIPC() <= res2.TotalIPC()*1.1 {
		t.Fatalf("8 channels (%.3f) should clearly beat 2 (%.3f) on 4-MEM",
			res8.TotalIPC(), res2.TotalIPC())
	}
}

func TestGangingHurtsMEM(t *testing.T) {
	indep := fastCfg("mcf", "ammp", "swim", "lucas")
	indep.Mem.PhysChannels = 8
	ri, err := Run(indep)
	if err != nil {
		t.Fatal(err)
	}
	ganged := fastCfg("mcf", "ammp", "swim", "lucas")
	ganged.Mem.PhysChannels = 8
	ganged.Mem.Gang = 4
	rg, err := Run(ganged)
	if err != nil {
		t.Fatal(err)
	}
	if rg.TotalIPC() >= ri.TotalIPC() {
		t.Fatalf("8C-4G (%.3f) should lose to 8C-1G (%.3f) on a MEM mix",
			rg.TotalIPC(), ri.TotalIPC())
	}
}

func TestXORReducesRowBufferMisses(t *testing.T) {
	page := fastCfg("swim", "lucas")
	page.Mem.Scheme = addrmap.Page
	rp, err := Run(page)
	if err != nil {
		t.Fatal(err)
	}
	xor := fastCfg("swim", "lucas")
	xor.Mem.Scheme = addrmap.XOR
	rx, err := Run(xor)
	if err != nil {
		t.Fatal(err)
	}
	if rx.RowBufferMissRate > rp.RowBufferMissRate+0.02 {
		t.Fatalf("XOR miss rate %.3f worse than page %.3f on streaming mix",
			rx.RowBufferMissRate, rp.RowBufferMissRate)
	}
}

func TestRDRAMManyBanksReduceConflicts(t *testing.T) {
	ddr := fastCfg("mcf", "ammp")
	rd := fastCfg("mcf", "ammp")
	rd.Mem.Kind = RDRAM
	rddr, err := Run(ddr)
	if err != nil {
		t.Fatal(err)
	}
	rrd, err := Run(rd)
	if err != nil {
		t.Fatal(err)
	}
	if rrd.RowBufferMissRate >= rddr.RowBufferMissRate {
		t.Fatalf("RDRAM (256 banks, %.3f) should miss less than DDR (8 banks, %.3f)",
			rrd.RowBufferMissRate, rddr.RowBufferMissRate)
	}
}

func TestClosePageNeverHits(t *testing.T) {
	cfg := fastCfg("swim")
	cfg.Mem.PageMode = dram.ClosePage
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowHits != 0 {
		t.Fatalf("close page recorded %d row hits", res.RowHits)
	}
}

func TestFetchPolicyPlumbing(t *testing.T) {
	for _, pol := range []cpu.FetchPolicy{cpu.ICOUNT, cpu.DWarn} {
		cfg := fastCfg("gzip", "mcf")
		cfg.CPU.Policy = pol
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestSchedulingPolicyPlumbing(t *testing.T) {
	for _, pol := range memctrl.Policies() {
		cfg := fastCfg("mcf", "ammp")
		cfg.Mem.Policy = pol
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.TotalIPC() <= 0 {
			t.Fatalf("%v: no progress", pol)
		}
	}
}

func TestConcurrencyHistogramsPopulated(t *testing.T) {
	res, err := Run(fastCfg("mcf", "ammp", "swim", "lucas"))
	if err != nil {
		t.Fatal(err)
	}
	var busy uint64
	for i := 1; i < len(res.OutstandingHist); i++ {
		busy += res.OutstandingHist[i]
	}
	if busy == 0 {
		t.Fatal("4-MEM never had outstanding DRAM requests")
	}
	var spread uint64
	for k := 2; k < len(res.ThreadSpreadHist); k++ {
		spread += res.ThreadSpreadHist[k]
	}
	if spread == 0 {
		t.Fatal("concurrent requests never came from multiple threads")
	}
}

func TestTimeoutPath(t *testing.T) {
	cfg := fastCfg("mcf")
	cfg.MaxCycles = 30_000 // far too few to warm up and finish
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("expected TimedOut")
	}
	if res.IPC[0] <= 0 {
		t.Fatal("timed-out run must still report partial IPC")
	}
}

func TestThreadLatencyReported(t *testing.T) {
	res, err := Run(fastCfg("mcf", "ammp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ThreadAvgReadLatency) != 2 {
		t.Fatalf("per-thread latencies = %v", res.ThreadAvgReadLatency)
	}
	for i, lat := range res.ThreadAvgReadLatency {
		if lat < 100 {
			t.Fatalf("thread %d avg latency %.0f implausible", i, lat)
		}
	}
}
