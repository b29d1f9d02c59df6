package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSequentialRunsLazilyAtWait(t *testing.T) {
	p := New(1)
	if p.Jobs() != 1 {
		t.Fatalf("1-job pool has %d jobs", p.Jobs())
	}
	runs := 0
	f := Submit(p, func() (int, error) { runs++; return 7, nil })
	if runs != 0 {
		t.Fatal("1-job pool must defer execution to Wait")
	}
	v, err := f.Wait()
	if v != 7 || err != nil {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	if _, _ = f.Wait(); runs != 1 {
		t.Fatalf("job ran %d times, want exactly once", runs)
	}
}

func TestDefaultJobsIsGOMAXPROCS(t *testing.T) {
	if New(0).Jobs() < 1 || New(-3).Jobs() < 1 {
		t.Fatal("jobs < 1 must clamp to a positive bound")
	}
}

func TestSubmissionOrderCollection(t *testing.T) {
	p := New(8)
	const n = 100
	futs := make([]*Future[int], n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = Submit(p, func() (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i * i, nil
		})
	}
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil || v != i*i {
			t.Fatalf("job %d: got %d, %v", i, v, err)
		}
	}
}

func TestConcurrencyBound(t *testing.T) {
	const bound = 3
	p := New(bound)
	var cur, peak int32
	var futs []*Future[struct{}]
	for i := 0; i < 20; i++ {
		futs = append(futs, Submit(p, func() (struct{}, error) {
			n := atomic.AddInt32(&cur, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&cur, -1)
			return struct{}{}, nil
		}))
	}
	for _, f := range futs {
		f.Wait()
	}
	if got := atomic.LoadInt32(&peak); got > bound {
		t.Fatalf("observed %d concurrent jobs, bound %d", got, bound)
	}
}

func TestErrorPropagation(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	f := Submit(p, func() (string, error) { return "", boom })
	if _, err := f.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want boom", err)
	}
}

func TestWaitIsReentrant(t *testing.T) {
	p := New(4)
	f := Submit(p, func() (int, error) { return 42, nil })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _ := f.Wait(); v != 42 {
				t.Error("re-entrant Wait returned wrong value")
			}
		}()
	}
	wg.Wait()
	if v, _ := f.Wait(); v != 42 {
		t.Fatal("Wait after Waits returned wrong value")
	}
}

func TestMemoSingleFlight(t *testing.T) {
	p := New(8)
	var memo Memo[string, int]
	var computes int32
	var futs []*Flight[int]
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k%d", i%4)
		f, _ := memo.Join(context.Background(), p, key, func(context.Context) (int, error) {
			atomic.AddInt32(&computes, 1)
			time.Sleep(time.Millisecond)
			return len(key), nil
		})
		futs = append(futs, f)
	}
	for _, f := range futs {
		if v, err := f.Wait(context.Background()); err != nil || v != 2 {
			t.Fatalf("memo Wait = %d, %v", v, err)
		}
	}
	if got := atomic.LoadInt32(&computes); got != 4 {
		t.Fatalf("computed %d times, want exactly 4 (one per key)", got)
	}
}

func TestResolved(t *testing.T) {
	f := resolved(3.5, nil)
	if v, err := f.Wait(); v != 3.5 || err != nil {
		t.Fatalf("resolved Wait = %v, %v", v, err)
	}
}

func TestPanickingJobFailsOnlyItsFuture(t *testing.T) {
	p := New(4)
	boom := SubmitNamed(p, "doomed-run", func() (int, error) {
		panic("injected test panic")
	})
	ok := Submit(p, func() (int, error) { return 7, nil })

	if v, err := ok.Wait(); err != nil || v != 7 {
		t.Fatalf("healthy future = %d, %v; a sibling panic must not touch it", v, err)
	}
	_, err := boom.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking future returned %v, want *PanicError", err)
	}
	if pe.Job != "doomed-run" || pe.Value != "injected test panic" {
		t.Fatalf("PanicError = job %q value %v", pe.Job, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "doomed-run") {
		t.Fatalf("PanicError missing stack or label: %v", err)
	}
	// The pool must still schedule work after absorbing a panic.
	if v, err := Submit(p, func() (int, error) { return 8, nil }).Wait(); err != nil || v != 8 {
		t.Fatalf("post-panic submission = %d, %v", v, err)
	}
}

func TestPanicRecoveryOnLazyPool(t *testing.T) {
	p := New(1)
	f := Submit(p, func() (int, error) { panic(42) })
	_, err := f.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("lazy panicking future returned %v, want *PanicError", err)
	}
	if pe.Value != 42 {
		t.Fatalf("panic value = %v, want 42", pe.Value)
	}
	// Wait is idempotent: the second call replays the same error.
	if _, err2 := f.Wait(); err2 != err {
		t.Fatalf("second Wait = %v, want the cached %v", err2, err)
	}
}

func TestSubmitCtxCancelledWhileQueuedNeverRuns(t *testing.T) {
	p := New(2)
	// Occupy both slots so a third submission must queue.
	var release sync.WaitGroup
	release.Add(1)
	for i := 0; i < 2; i++ {
		Submit(p, func() (int, error) { release.Wait(); return 0, nil })
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	queued := SubmitNamedCtx(p, ctx, "", func(context.Context) (int, error) {
		ran.Store(true)
		return 1, nil
	})
	cancel()
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job returned %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("cancelled queued job ran its fn")
	}
	release.Done()
	// The pool is not poisoned: later submissions still run.
	if v, err := Submit(p, func() (int, error) { return 9, nil }).Wait(); err != nil || v != 9 {
		t.Fatalf("post-cancel submission = %d, %v", v, err)
	}
}

func TestSubmitCtxCancelledOnLazyPool(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran bool
	f := SubmitNamedCtx(p, ctx, "lazy", func(context.Context) (int, error) { ran = true; return 1, nil })
	cancel()
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("lazy cancelled job returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("lazy cancelled job ran its fn")
	}
}

func TestSubmitCtxPassesContextThrough(t *testing.T) {
	p := New(2)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "here")
	f := SubmitNamedCtx(p, ctx, "", func(ctx context.Context) (string, error) {
		v, _ := ctx.Value(key{}).(string)
		return v, nil
	})
	if v, err := f.Wait(); err != nil || v != "here" {
		t.Fatalf("fn saw ctx value %q, err %v", v, err)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	p := New(2)
	var memo Memo[string, int]
	var calls atomic.Int32
	boom := errors.New("flaky")
	fn := func() (int, error) {
		if calls.Add(1) == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := memoGet(&memo, p, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first flight returned %v, want the injected error", err)
	}
	// The failure must not be cached: a later Get re-executes.
	if v, err := memoGet(&memo, p, "k", fn); err != nil || v != 42 {
		t.Fatalf("retry after error = %d, %v; want 42, nil", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2", got)
	}
	// The success IS cached: a third Get does not re-execute.
	if v, err := memoGet(&memo, p, "k", fn); err != nil || v != 42 {
		t.Fatalf("cached success = %d, %v", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times after success, want still 2", got)
	}
}

func TestMemoPanicNotCached(t *testing.T) {
	for _, jobs := range []int{1, 4} { // lazy and pooled execution paths
		p := New(jobs)
		var memo Memo[string, int]
		calls := 0
		var mu sync.Mutex
		fn := func() (int, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("injected memo panic")
			}
			return 7, nil
		}
		_, err := memoGet(&memo, p, "k", fn)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: first flight returned %v, want *PanicError", jobs, err)
		}
		if v, err := memoGet(&memo, p, "k", fn); err != nil || v != 7 {
			t.Fatalf("jobs=%d: retry after panic = %d, %v; want 7, nil", jobs, v, err)
		}
		if memo.Stats().Entries != 1 {
			t.Fatalf("jobs=%d: memo holds %d entries, want 1 cached success", jobs, memo.Stats().Entries)
		}
	}
}

func TestMemoGetCtxReportsCreated(t *testing.T) {
	p := New(2)
	var memo Memo[string, int]
	var release sync.WaitGroup
	release.Add(1)
	f1, out := memo.Join(context.Background(), p, "k", func(context.Context) (int, error) {
		release.Wait()
		return 3, nil
	})
	if out != Started {
		t.Fatal("first Join must report Started")
	}
	f2, out := memo.Join(context.Background(), p, "k", func(context.Context) (int, error) { return 0, nil })
	if out != Joined {
		t.Fatal("second Join must join the in-flight computation")
	}
	if f1 != f2 {
		t.Fatal("joined flight returned a different handle")
	}
	release.Done()
	if v, err := f2.Wait(context.Background()); err != nil || v != 3 {
		t.Fatalf("joined flight = %d, %v", v, err)
	}
	f3, out := memo.Join(context.Background(), p, "k", func(context.Context) (int, error) { return 0, nil })
	if v, _ := f3.Wait(context.Background()); out != Hit || v != 3 {
		t.Fatalf("Join after resolution = %d, outcome %v; want 3, Hit", v, out)
	}
	if st := memo.Stats(); st.Starts != 1 || st.Joins != 1 || st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("Stats = %+v, want 1 start, 1 join, 1 hit, 0 misses (only Lookup counts those), 1 entry", st)
	}
}

// TestInstrumentObservesSlotWait: the hook fires once per pooled job with its
// label, and a job queued behind a saturated pool reports a wait at least as
// long as the blocking job's runtime.
func TestInstrumentObservesSlotWait(t *testing.T) {
	p := NewPooled(1)
	var mu sync.Mutex
	waits := map[string]time.Duration{}
	p.Instrument(func(name string, wait time.Duration) {
		mu.Lock()
		waits[name] = wait
		mu.Unlock()
	})

	block := make(chan struct{})
	first := SubmitNamed(p, "holder", func() (int, error) {
		<-block
		return 1, nil
	})
	// Give the holder time to take the only slot, then queue behind it.
	time.Sleep(20 * time.Millisecond)
	second := SubmitNamed(p, "queued", func() (int, error) { return 2, nil })
	time.Sleep(30 * time.Millisecond)
	close(block)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("hook fired for %d jobs, want 2: %v", len(waits), waits)
	}
	if waits["queued"] < 25*time.Millisecond {
		t.Fatalf("queued job waited %v, want at least the holder's 25ms+ occupancy", waits["queued"])
	}
	if waits["holder"] > 20*time.Millisecond {
		t.Fatalf("holder job reports %v slot wait on an empty pool", waits["holder"])
	}
}

// TestInstrumentNeverFiresOnLazyPools: a 1-job pool runs inline at
// Wait and has no queue, so the hook must stay silent.
func TestInstrumentNeverFiresOnLazyPools(t *testing.T) {
	p := New(1)
	fired := atomic.Int32{}
	p.Instrument(func(string, time.Duration) { fired.Add(1) })
	f := Submit(p, func() (int, error) { return 3, nil })
	if v, err := f.Wait(); v != 3 || err != nil {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	if fired.Load() != 0 {
		t.Fatalf("instrument hook fired %d times on a lazy pool", fired.Load())
	}
}
