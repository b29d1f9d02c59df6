package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"smtdram/internal/obs"
)

// The instruction supply's helper lives exactly as long as the clock runs:
// it is there while a run steps, and gone once any way out of clock.until
// returns — a finished run, a warmup checkpoint, a context cancelled before
// the first cycle or in the middle, a budget spent inside warmup. A helper
// that outlived its run would pin the whole machine in a long-lived daemon.
func TestSupplyHelperEndsWithItsRun(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	small := func() Config {
		cfg := DefaultConfig("mcf", "gzip")
		cfg.WarmupInstr, cfg.TargetInstr = 3_000, 3_000
		return cfg
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) error
		want error
	}{
		{"Run", func(t *testing.T) error {
			cfg := small()
			ob := &obs.Observer{ProgressInterval: 1_000}
			lo, hi := -1, -1
			ob.Progress = func(uint64) {
				n := supplyHelpers()
				if lo < 0 || n < lo {
					lo = n
				}
				hi = max(hi, n)
			}
			cfg.Observe = func() *obs.Observer { return ob }
			_, err := Run(cfg)
			if lo != 1 || hi != 1 {
				t.Errorf("%d to %d supply helpers while the clock ran, want exactly 1", lo, hi)
			}
			return err
		}, nil},
		{"WarmupCheckpoint", func(t *testing.T) error {
			_, err := WarmupCheckpoint(context.Background(), small())
			return err
		}, nil},
		{"cancelled before the first cycle", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunContext(ctx, small())
			return err
		}, context.Canceled},
		{"cancelled mid-run", func(t *testing.T) error {
			cfg := small()
			cfg.WarmupInstr, cfg.TargetInstr = 20_000, 200_000
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ob := &obs.Observer{ProgressInterval: 2_000, Progress: func(now uint64) {
				if now > 10_000 {
					cancel()
				}
			}}
			cfg.Observe = func() *obs.Observer { return ob }
			_, err := RunContext(ctx, cfg)
			return err
		}, context.Canceled},
		{"budget ends inside warmup", func(t *testing.T) error {
			cfg := small()
			cfg.MaxCycles = 2_000
			_, err := WarmupCheckpoint(context.Background(), cfg)
			return err
		}, ErrWarmupBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := tc.run(t); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// The helper has signalled its exit when Stop returns; it may take
			// a moment longer to leave the count.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// supplyHelpers counts the supply's helper goroutines, by the line that
// names their creator: it ends every goroutine's stack, started or not.
func supplyHelpers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by smtdram/internal/workload.(*Supply).Start")
}
