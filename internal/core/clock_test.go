package core

import "testing"

// tripAt against the loop it describes: a watchdog that ticks every cycle,
// compares the commit count at every multiple of 1024, and trips once a full
// window has passed since the boundary that last saw it move. The
// machine commits on cycle lastCommitAt and (so that earlier progress cannot
// matter) on a few cycles before it, then never again.
func TestTripAtMatchesTickedWatchdog(t *testing.T) {
	ticked := func(lastCommitAt, wd uint64) uint64 {
		var committed, lastCommitted, lastProgress uint64
		for now := uint64(1); ; now++ {
			if now <= lastCommitAt && (now == lastCommitAt || now%700 == 3) {
				committed++
			}
			if now&1023 == 0 {
				if committed != lastCommitted {
					lastCommitted, lastProgress = committed, now
				} else if now-lastProgress >= wd {
					return now
				}
			}
		}
	}
	for _, lastCommitAt := range []uint64{0, 1, 1023, 1024, 1025, 2047, 2048, 5000, 20_480, 271_151} {
		for _, wd := range []uint64{1, 10, 1023, 1024, 1025, 3000, 20_000, 500_000} {
			if got, want := tripAt(lastCommitAt, wd), ticked(lastCommitAt, wd); got != want {
				t.Errorf("tripAt(%d, %d) = %d, a ticked watchdog trips at %d", lastCommitAt, wd, got, want)
			}
		}
	}
}

// assertControllerCovered is the invariant sail's empty-queue lost-wakeup
// guard leans on, which the lockstep oracle asserts at every landed cycle: a
// busy controller always has an event pending.
func assertControllerCovered(t *testing.T, s *Simulator, now uint64) {
	t.Helper()
	if _, pending := s.q.NextAt(); !pending && s.ctrl.Busy() {
		t.Fatalf("cycle %d: controller busy with an empty event queue", now)
	}
}
