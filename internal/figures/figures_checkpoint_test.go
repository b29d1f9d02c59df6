package figures

import (
	"reflect"
	"runtime"
	"testing"

	"smtdram/internal/checkpoint"
	"smtdram/internal/workload"
)

// TestFig6RowsIdenticalWithCheckpoints: a full figure regenerated through the
// warmup-checkpoint cache is identical to one computed plainly — the cache
// changes wall-clock time and nothing else. This is the figure-level face of
// core's checkpoint equivalence suite.
func TestFig6RowsIdenticalWithCheckpoints(t *testing.T) {
	fig6, err := ByName("6")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ckpts *checkpoint.Cache) Grid {
		o := Options{Warmup: 10_000, Target: 10_000, Seed: 42,
			Jobs: runtime.GOMAXPROCS(0), Checkpoints: ckpts}
		g, err := fig6.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	plain := mk(nil)
	ckpts := checkpoint.New()
	cached := mk(ckpts)
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("checkpointed figure diverged\nplain:  %+v\ncached: %+v", plain, cached)
	}
	st := ckpts.Snapshot()
	if st.Misses == 0 || st.Forks == 0 {
		t.Fatalf("cache counters = %+v; the cached sweep never used the cache", st)
	}
	if st.Bypassed != 0 {
		t.Fatalf("cache counters = %+v; figure configs must all be checkpointable", st)
	}
}

// TestFig6SweepSimcyclesPerPoint pins the tentpole invariant at sweep-point
// granularity: across the standard Figure 6 grid (every mix × the figure's
// own channel axis), a run forked from a warmup checkpoint reports exactly
// the simulated cycle count of an uninterrupted run, point by point, and the
// summed total is pinned.
func TestFig6SweepSimcyclesPerPoint(t *testing.T) {
	o := Options{Warmup: 10_000, Target: 10_000, Seed: 42}
	mixes, axis := workload.Mixes(), channels()
	cycles := func(ckpts *checkpoint.Cache) (out []uint64) {
		o := o
		o.Checkpoints = ckpts
		err := sweep(o, "6", mixes, axis, false, func(_ workload.Mix, cells []cell) {
			for _, c := range cells {
				out = append(out, c.res.Cycles)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ckpts := checkpoint.New()
	cold, warm := cycles(nil), cycles(ckpts)

	prefixes := map[string]bool{}
	var points int
	var total uint64
	for _, m := range mixes {
		for _, v := range axis {
			cfg := o.baseConfig(m.Apps...)
			v.apply(&cfg)
			prefixes[cfg.WarmupFingerprint()] = true
			if cold[points] != warm[points] {
				t.Fatalf("%s/%s: simcycles diverged: cold=%d warm=%d", m.Name, v.label, cold[points], warm[points])
			}
			total += cold[points]
			points++
		}
	}
	st := ckpts.Snapshot()
	if st.Misses != uint64(len(prefixes)) || st.Forks != uint64(points) {
		t.Fatalf("cache counters = %+v, want %d misses and %d forks", st, len(prefixes), points)
	}
	if points != 27 || total != 2076104 {
		t.Fatalf("fig6 sweep: %d points, total simcycles = %d; want 27 and 2076104", points, total)
	}
}
