package smtdram

import (
	"testing"
)

// The facade tests exercise the public API end to end; the heavy behavioural
// coverage lives in the internal packages.

func TestPublicAPIQuickRun(t *testing.T) {
	cfg := DefaultConfig("gzip", "mcf")
	cfg.WarmupInstr = 20_000
	cfg.TargetInstr = 20_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("no throughput")
	}
	if len(res.Apps) != 2 || res.Apps[0] != "gzip" || res.Apps[1] != "mcf" {
		t.Fatalf("apps = %v", res.Apps)
	}
}

func TestPublicCatalogs(t *testing.T) {
	if got := len(Apps()); got != 26 {
		t.Fatalf("Apps() = %d, want 26", got)
	}
	if got := len(Mixes()); got != 9 {
		t.Fatalf("Mixes() = %d, want 9", got)
	}
	m, err := MixByName("8-MEM")
	if err != nil || m.Threads() != 8 {
		t.Fatalf("MixByName(8-MEM) = %v, %v", m, err)
	}
	app, err := AppByName("swim")
	if err != nil || app.Name != "swim" {
		t.Fatalf("AppByName(swim) = %v, %v", app, err)
	}
}

func TestPublicConstantsDistinct(t *testing.T) {
	fetch := []FetchPolicy{RoundRobin, ICOUNT, FetchStall, DG, DWarn}
	seen := map[FetchPolicy]bool{}
	for _, p := range fetch {
		if seen[p] {
			t.Fatalf("duplicate fetch policy constant %v", p)
		}
		seen[p] = true
	}
	sched := []SchedPolicy{FCFS, HitFirst, AgeBased, RequestBased, ROBBased, IQBased}
	seen2 := map[SchedPolicy]bool{}
	for _, p := range sched {
		if seen2[p] {
			t.Fatalf("duplicate scheduling policy constant %v", p)
		}
		seen2[p] = true
	}
	if PageMapping == XORMapping || OpenPage == ClosePage || DDR == RDRAM {
		t.Fatal("paired constants must differ")
	}
}

func TestPublicCPIBreakdown(t *testing.T) {
	cfg := DefaultConfig("eon")
	cfg.WarmupInstr = 20_000
	cfg.TargetInstr = 20_000
	b, err := CPIBreakdown(cfg, "eon")
	if err != nil {
		t.Fatal(err)
	}
	if b.Proc <= 0 || b.Total() < b.Proc {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestPublicWeightedSpeedup(t *testing.T) {
	cfg := DefaultConfig("gzip", "bzip2")
	cfg.WarmupInstr = 20_000
	cfg.TargetInstr = 20_000
	cache := map[string]float64{}
	ws, _, err := WeightedSpeedup(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0 || ws > 2 {
		t.Fatalf("2-thread WS = %v", ws)
	}
}

func TestPublicRunAlone(t *testing.T) {
	cfg := DefaultConfig("placeholder")
	cfg.WarmupInstr = 20_000
	cfg.TargetInstr = 20_000
	ipc, err := RunAlone(cfg, "sixtrack")
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0.5 {
		t.Fatalf("sixtrack alone IPC = %v", ipc)
	}
}

func TestSourcesLengthValidated(t *testing.T) {
	cfg := DefaultConfig("gzip", "mcf")
	cfg.Sources = make([]Source, 1)
	if cfg.Validate() == nil {
		t.Fatal("Validate accepted mismatched Sources length")
	}
}
