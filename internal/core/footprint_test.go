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
// lines (0.31 MB: 5-byte words in the L1s, 4-byte words in the L2 and L3)
// plus the core, the controller and the generators, 0.56 MB in all (558,120
// bytes, 1,648 of them the instruction supply and its per-thread feeds; while
// its clock runs the machine also holds 16 blocks of 13,504 bytes, 216 KB,
// taken from and given back to workload's idle list, which this count does not
// see; 565,112 while a line word carried
// a prefetched flag, which took the L2's words to 5 bytes). The
// core's share is 2,048 ROB slots of 72 bytes (147 KB) and a 96-entry issue
// queue of 56-byte entries (5.4 KB); the machine was 0.67 MB while every ROB
// slot carried a waiting uop's wakeup state and producer seqs (120 bytes, a
// 245 KB ROB). 20 KB of it are the threads' pending and frontend rings
// (43 KB of 2×FrontendCap-entry frontend deques before them; before those
// the run grew its buffers, and each generator seeded from a math/rand
// source of its own, 43 KB); 0.97 MB with 8-byte lines, 1.58 MB with a
// 16-byte line that carried an LRU stamp, and 2.7 MB with 24-byte lines
// behind per-set slice headers.
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
	const ceiling = 620_000
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewSimulator allocated %d bytes", got)
	if got > ceiling {
		t.Fatalf("NewSimulator allocated %d bytes for the eight-thread default machine, ceiling %d", got, ceiling)
	}
}

// TestCheckpointFrameSize: a frame lists the lines its warmup left valid, so
// a short warmup's frame is a fraction of the hierarchy's capacity (which
// alone used to cost 379 KB, five bytes an empty line), and a valid line is
// one varint. The sizes are deterministic: 49,489 and 237,103 bytes, under
// ceilings about 10% above.
func TestCheckpointFrameSize(t *testing.T) {
	for _, tc := range []struct {
		mix     string
		warmup  uint64
		ceiling int
	}{
		{"2-MEM", 4_000, 55_000},
		{"8-MEM", 30_000, 260_000},
	} {
		chk, err := WarmupCheckpoint(context.Background(), mixCfg(t, tc.mix, tc.warmup))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s after %d warmup instructions: %d-byte frame", tc.mix, tc.warmup, len(chk.Data))
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
