package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtdram/internal/obs"
)

// blockingFn builds a submit fn that parks until release fires (or the flight
// context is cancelled), counting executions.
func blockingFn(release <-chan struct{}, out json.RawMessage, runs *atomic.Int64) func(*flight) func(context.Context) (json.RawMessage, error) {
	return func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(ctx context.Context) (json.RawMessage, error) {
			if runs != nil {
				runs.Add(1)
			}
			select {
			case <-release:
				return out, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// submitReq builds the bare request submit needs for header-driven admission.
func submitReq() *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/sim", nil)
}

func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
	return st
}

// waitState polls a job until it reaches want (or the deadline).
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		st := j.status(true)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDedupSharesOneFlight is the acceptance check for single-flight dedup:
// two identical in-flight submissions must run exactly one computation, and
// both jobs must complete with the same bytes.
func TestDedupSharesOneFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()

	release := make(chan struct{})
	var runs atomic.Int64
	fn := blockingFn(release, json.RawMessage(`{"v":1}`), &runs)

	rec1 := httptest.NewRecorder()
	s.submit(rec1, submitReq(), "sim", "fp-x", nil, fn)
	rec2 := httptest.NewRecorder()
	s.submit(rec2, submitReq(), "sim", "fp-x", nil, fn)
	if rec1.Code != http.StatusAccepted || rec2.Code != http.StatusAccepted {
		t.Fatalf("codes = %d, %d; want both 202", rec1.Code, rec2.Code)
	}
	st1, st2 := decodeStatus(t, rec1), decodeStatus(t, rec2)
	if st1.Deduped {
		t.Fatalf("first submission must not be marked deduped")
	}
	if !st2.Deduped {
		t.Fatalf("second identical submission must join the first's flight")
	}

	close(release)
	got1 := waitState(t, s, st1.ID, StateDone)
	got2 := waitState(t, s, st2.ID, StateDone)
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", runs.Load())
	}
	if string(got1.Result) != `{"v":1}` || string(got2.Result) != `{"v":1}` {
		t.Fatalf("results = %q, %q; want both {\"v\":1}", got1.Result, got2.Result)
	}
}

// TestBackpressure429 checks admission control: a full queue rejects with 429
// and Retry-After, and completing a job frees its slot.
func TestBackpressure429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	release := make(chan struct{})
	fn := blockingFn(release, json.RawMessage(`{}`), nil)

	rec1 := httptest.NewRecorder()
	s.submit(rec1, submitReq(), "sim", "fp-a", nil, fn)
	if rec1.Code != http.StatusAccepted {
		t.Fatalf("first submission: %d, want 202", rec1.Code)
	}
	rec2 := httptest.NewRecorder()
	s.submit(rec2, submitReq(), "sim", "fp-b", nil, blockingFn(release, json.RawMessage(`{}`), nil))
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("second submission: %d, want 429", rec2.Code)
	}
	if got := rec2.Result().Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}

	close(release)
	waitState(t, s, decodeStatus(t, rec1).ID, StateDone)

	rec3 := httptest.NewRecorder()
	s.submit(rec3, submitReq(), "sim", "fp-c", nil, blockingFn(nil, nil, nil))
	if rec3.Code != http.StatusAccepted {
		t.Fatalf("submission after slot freed: %d, want 202", rec3.Code)
	}
}

// TestCancelFreesSlotAndCancelsFlight checks DELETE: the job goes to
// cancelled, the underlying computation sees context cancellation, the
// admission slot frees, and the terminal state survives the flight unwinding.
func TestCancelFreesSlotAndCancelsFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sawCancel := make(chan struct{})
	rec := httptest.NewRecorder()
	s.submit(rec, submitReq(), "sim", "fp-cancel", nil, func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(ctx context.Context) (json.RawMessage, error) {
			<-ctx.Done()
			close(sawCancel)
			return nil, ctx.Err()
		}
	})
	st := decodeStatus(t, rec)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d, want 200", resp.StatusCode)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", got.State)
	}

	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatalf("computation never observed cancellation")
	}

	// The slot must free: a new submission is admitted with QueueDepth 1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec2 := httptest.NewRecorder()
		s.submit(rec2, submitReq(), "sim", "fp-after", nil, blockingFn(nil, nil, nil))
		if rec2.Code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after cancel (last code %d)", rec2.Code)
		}
		time.Sleep(time.Millisecond)
	}

	// And cancelled must stick even after the flight's error unwinds.
	time.Sleep(10 * time.Millisecond)
	final := waitState(t, s, st.ID, StateCancelled)
	if final.State != StateCancelled {
		t.Fatalf("final state = %s, want cancelled", final.State)
	}
}

// TestCancelOneDedupedSiblingKeepsOther: deleting one of two deduped jobs
// must not cancel the shared simulation; the surviving job still completes.
func TestCancelOneDedupedSiblingKeepsOther(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	fn := blockingFn(release, json.RawMessage(`{"kept":true}`), nil)
	rec1 := httptest.NewRecorder()
	s.submit(rec1, submitReq(), "sim", "fp-shared", nil, fn)
	rec2 := httptest.NewRecorder()
	s.submit(rec2, submitReq(), "sim", "fp-shared", nil, fn)
	st1, st2 := decodeStatus(t, rec1), decodeStatus(t, rec2)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	close(release)
	got := waitState(t, s, st1.ID, StateDone)
	if string(got.Result) != `{"kept":true}` {
		t.Fatalf("surviving sibling result = %q", got.Result)
	}
	waitState(t, s, st2.ID, StateCancelled)
}

// TestSSEStreamDeterministic drives the event stream end to end with a
// hand-rolled computation: subscribe, emit one progress sample, finish, and
// check the wire framing.
func TestSSEStreamDeterministic(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	subscribed := make(chan struct{})
	release := make(chan struct{})
	rec := httptest.NewRecorder()
	s.submit(rec, submitReq(), "sim", "fp-sse", nil, func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(ctx context.Context) (json.RawMessage, error) {
			select {
			case <-subscribed:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			s.broadcastProgress(fl, []byte(`{"cycle":42}`))
			select {
			case <-release:
				return json.RawMessage(`{"done":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
	st := decodeStatus(t, rec)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// Wait for the handler to register its subscription, then let the
	// computation emit.
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	close(subscribed)

	sc := bufio.NewScanner(resp.Body)
	readEvent := func() (name, data string) {
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				return name, data
			}
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return "", ""
	}

	name, data := readEvent()
	if name != "progress" || data != `{"cycle":42}` {
		t.Fatalf("first event = %q %q, want progress {\"cycle\":42}", name, data)
	}
	close(release)
	name, data = readEvent()
	if name != "done" {
		t.Fatalf("terminal event = %q, want done", name)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(data), &final); err != nil || final.State != StateDone {
		t.Fatalf("terminal payload = %q (err %v), want a done JobStatus", data, err)
	}
}

// TestCacheCountersAreCounters: a repeated submission is served from cache,
// and the /v1/stats snapshot counts one hit and one miss.
func TestCacheCountersAreCounters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	instant := func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(context.Context) (json.RawMessage, error) {
			return json.RawMessage(`{"v":1}`), nil
		}
	}
	rec1 := httptest.NewRecorder()
	s.submit(rec1, submitReq(), "sim", "fp-counted", nil, instant)
	waitState(t, s, decodeStatus(t, rec1).ID, StateDone)

	rec2 := httptest.NewRecorder()
	s.submit(rec2, submitReq(), "sim", "fp-counted", nil, instant)
	if rec2.Code != http.StatusOK || !decodeStatus(t, rec2).Cached {
		t.Fatalf("repeat submission: code %d, want 200 served from cache", rec2.Code)
	}

	if c := s.statsSnapshot().Cache; c.Hits != 1 || c.Misses != 1 || c.HitRatio != 0.5 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 miss, ratio 0.5", c)
	}
}

// TestDrainSubmitRace hammers submit while Drain runs: the draining flag and
// wg.Add are ordered by s.mu against wg.Wait, so the race detector must stay
// quiet and Drain must not miss a late-admitted flight.
func TestDrainSubmitRace(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	instant := func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(context.Context) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.submit(rec, submitReq(), "sim", fmt.Sprintf("fp-race-%d-%d", i, n), nil, instant)
			}
		}(i)
	}

	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain under submission load: %v", err)
	}
}

// TestFailedFlightNotCached: a failing computation must not poison the cache
// or the memo — a later identical submission runs again.
func TestFailedFlightNotCached(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	var runs atomic.Int64
	fail := func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(ctx context.Context) (json.RawMessage, error) {
			runs.Add(1)
			return nil, context.DeadlineExceeded
		}
	}
	rec1 := httptest.NewRecorder()
	s.submit(rec1, submitReq(), "sim", "fp-fail", nil, fail)
	st1 := decodeStatus(t, rec1)
	waitState(t, s, st1.ID, StateFailed)

	rec2 := httptest.NewRecorder()
	s.submit(rec2, submitReq(), "sim", "fp-fail", nil, fail)
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("resubmission after failure: %d, want 202 (not served from cache)", rec2.Code)
	}
	st2 := decodeStatus(t, rec2)
	if st2.Cached {
		t.Fatalf("failed result must not be cached")
	}
	waitState(t, s, st2.ID, StateFailed)
	if runs.Load() != 2 {
		t.Fatalf("computation ran %d times, want 2 (failure not memoised)", runs.Load())
	}
}

// jobTable lists the retained job ids in eviction order, and fails unless
// that order and the job table hold the same ids.
func jobTable(t *testing.T, s *Server) []string {
	t.Helper()
	order := s.jobOrder[s.jobHead:]
	if len(order) != len(s.jobs) {
		t.Fatalf("order holds %d ids, table %d jobs", len(order), len(s.jobs))
	}
	for _, id := range order {
		if s.jobs[id] == nil {
			t.Fatalf("order holds %q, which the table does not", id)
		}
	}
	return order
}

// The job table keeps MaxTrackedJobs: each registration past the cap forgets
// the oldest finished job, a job still live at the head of the order
// survives every eviction in its place, and the order's head compacts
// instead of growing. With nothing finished, the table runs hot.
func TestJobTableEvictsOldestTerminal(t *testing.T) {
	s := New(Config{MaxTrackedJobs: 4})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := func(j *job) { j.state = StateDone }
	s.registerJobLocked("live", "sim", "fp")
	for _, id := range []string{"a", "b", "c"} {
		done(s.registerJobLocked(id, "sim", "fp"))
	}
	done(s.registerJobLocked("d", "sim", "fp"))
	if got := fmt.Sprint(jobTable(t, s)); got != "[live b c d]" {
		t.Fatalf("after one eviction the table is %s, want [live b c d]", got)
	}
	for i := 0; i < 100; i++ {
		done(s.registerJobLocked(fmt.Sprintf("n%d", i), "sim", "fp"))
		order := jobTable(t, s)
		if len(order) != 4 || order[0] != "live" || order[3] != fmt.Sprintf("n%d", i) {
			t.Fatalf("after n%d the table is %v, want live first, n%d last, 4 jobs", i, order, i)
		}
		if len(s.jobOrder) > 2*4+1 {
			t.Fatalf("after n%d the order slice is %d long: the head never compacts", i, len(s.jobOrder))
		}
	}
	done(s.jobs["live"])
	s.registerJobLocked("x", "sim", "fp")
	if got := fmt.Sprint(jobTable(t, s)); got != "[n97 n98 n99 x]" {
		t.Fatalf("once finished, the oldest job goes: table %s, want [n97 n98 n99 x]", got)
	}
	s.registerJobLocked("y", "sim", "fp") // x and y live: n97 goes
	s.registerJobLocked("z", "sim", "fp")
	s.registerJobLocked("w", "sim", "fp")
	s.registerJobLocked("v", "sim", "fp") // only live jobs left to evict
	if got := fmt.Sprint(jobTable(t, s)); got != "[x y z w v]" {
		t.Fatalf("with every job live the table is %s, want [x y z w v]", got)
	}
}

// BenchmarkRegisterJobAtCap is one registration into a full job table with a
// live job at its head: what every submission past MaxTrackedJobs pays under
// s.mu.
func BenchmarkRegisterJobAtCap(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerJobLocked("live", "sim", "fp")
	for i := 1; i < s.cfg.MaxTrackedJobs; i++ {
		s.registerJobLocked(fmt.Sprintf("old-%d", i), "sim", "fp").state = StateDone
	}
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("new-%d", i)
	}
	b.ResetTimer()
	for _, id := range ids {
		s.registerJobLocked(id, "sim", "fp").state = StateDone
	}
	b.StopTimer()
	if len(s.jobs) != s.cfg.MaxTrackedJobs || s.jobs["live"] == nil {
		b.Fatalf("table holds %d jobs (live kept: %v), want %d", len(s.jobs), s.jobs["live"] != nil, s.cfg.MaxTrackedJobs)
	}
}

// TestUnranFailureTrace: a flight that resolves before it runs — the daemon
// closes while it waits behind a busy worker — fails its job, and the job's
// trace shows no run, and a queue wait that ends where respond begins, at the
// resolve instant.
func TestUnranFailureTrace(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	rec := httptest.NewRecorder()
	s.submit(rec, submitReq(), "sim", "fp-block", nil, func(fl *flight) func(context.Context) (json.RawMessage, error) {
		return func(ctx context.Context) (json.RawMessage, error) {
			s.markRunning(fl)
			<-ctx.Done()
			return nil, ctx.Err()
		}
	})
	waitState(t, s, decodeStatus(t, rec).ID, StateRunning)
	rec = httptest.NewRecorder()
	s.submit(rec, submitReq(), "sim", "fp-queued", nil, blockingFn(nil, nil, nil))
	id := decodeStatus(t, rec).ID
	s.Close()
	waitState(t, s, id, StateFailed)

	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	tr := s.jobTrace(j)
	phases := map[string]obs.Phase{}
	for _, p := range tr.Phases {
		phases[p.Name] = p
	}
	queued, respond := phases["queue_wait"], phases["respond"]
	if len(tr.Run) != 0 || respond.Start.IsZero() || !queued.End.Equal(respond.Start) || !respond.End.Equal(phases["job"].End) {
		t.Fatalf("trace of a job whose flight never ran: run %v, phases %+v", tr.Run, tr.Phases)
	}
}
