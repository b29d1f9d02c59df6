package core

import (
	"context"
	"runtime"
	"testing"

	"smtdram/internal/workload"
)

// A sweep pays a simulation's fixed costs at every point: building the
// machine, and for a warm point the size of the frame it restores. These are
// the gates on both, and the benchmarks to pair against a parent commit.

func mixCfg(t testing.TB, mix string, warmup uint64) Config {
	t.Helper()
	m, err := workload.MixByName(mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m.Apps...)
	cfg.WarmupInstr, cfg.TargetInstr = warmup, 20_000
	return cfg
}

// TestMachineFootprint: the eight-thread Table 1 machine is 75,776 cache
// lines of 16 bytes (1.2 MB) plus the core, the controller and the generators;
// with 24-byte lines behind per-set slice headers it was 2.7 MB.
func TestMachineFootprint(t *testing.T) {
	cfg := mixCfg(t, "8-MEM", 30_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSimulator(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	const ceiling = 1_800_000
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("NewSimulator allocated %d bytes for the eight-thread default machine, ceiling %d", got, ceiling)
	}
}

// TestCheckpointFrameSize: a frame lists the lines its warmup left valid, so
// a short warmup's frame is a fraction of the hierarchy's capacity (which
// alone used to cost 379 KB, five bytes an empty line). The sizes are
// deterministic.
func TestCheckpointFrameSize(t *testing.T) {
	for _, tc := range []struct {
		mix     string
		warmup  uint64
		ceiling int
	}{
		{"2-MEM", 4_000, 100_000},
		{"8-MEM", 30_000, 320_000},
	} {
		chk, err := WarmupCheckpoint(context.Background(), mixCfg(t, tc.mix, tc.warmup))
		if err != nil {
			t.Fatal(err)
		}
		if len(chk.Data) > tc.ceiling {
			t.Errorf("%s after %d warmup instructions: %d-byte frame, ceiling %d", tc.mix, tc.warmup, len(chk.Data), tc.ceiling)
		}
	}
}

var benchSim *Simulator

func BenchmarkNewSimulator(b *testing.B) {
	cfg := mixCfg(b, "8-MEM", 30_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSim = s
	}
}

// BenchmarkCheckpointRestore is what every warm sweep point pays before its
// first measured cycle: a short warmup that leaves the hierarchy mostly
// empty, and a long one that fills it.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, bc := range []struct {
		name, mix string
		warmup    uint64
	}{
		{"4-MIX@4k", "4-MIX", 4_000},
		{"8-MEM@300k", "8-MEM", 300_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := mixCfg(b, bc.mix, bc.warmup)
			chk, err := WarmupCheckpoint(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ReportMetric(float64(len(chk.Data)), "frame-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewCheckpointedSimulator(cfg, chk)
				if err != nil {
					b.Fatal(err)
				}
				benchSim = s
			}
		})
	}
}
