package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
)

func newTestDaemon(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

// testLogWriter routes the daemon's slog output into the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

func smallSim() server.SimRequest {
	w, tgt := uint64(2_000), uint64(20_000)
	return server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt}
}

// TestSimResultByteIdenticalToDirectRun is the core acceptance check: the
// payload the daemon serves equals json.Marshal of the same configuration run
// directly — i.e. what `smtdram -json` prints.
func TestSimResultByteIdenticalToDirectRun(t *testing.T) {
	req := smallSim()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestDaemon(t, server.Config{Logger: testLogger(t)})
	ctx := context.Background()
	st, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served result differs from direct run:\n got %s\nwant %s", got, want)
	}
}

// TestFetchPolicyKeysResultCache: two requests differing only in the SMT
// fetch policy (the paper's main variable) must build configurations with
// distinct fingerprints — otherwise the daemon's cache and dedup would hand
// one policy's results to the other.
func TestFetchPolicyKeysResultCache(t *testing.T) {
	dwarnReq, icountReq := smallSim(), smallSim()
	icountReq.Fetch = "icount"
	dwarn, err := dwarnReq.Config()
	if err != nil {
		t.Fatal(err)
	}
	icount, err := icountReq.Config()
	if err != nil {
		t.Fatal(err)
	}
	if dwarn.Fingerprint() == icount.Fingerprint() {
		t.Fatalf("fetch policy missing from the cache key: %q", dwarn.Fingerprint())
	}
}

// TestCacheHitSecondSubmission: a repeated configuration is answered from
// cache without a second simulation, and the daemon's counters say so.
func TestCacheHitSecondSubmission(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	req := smallSim()

	st1, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st1, err = c.Wait(ctx, st1.ID, 0); err != nil {
		t.Fatal(err)
	}
	first, err := c.Result(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != server.StateDone {
		t.Fatalf("second submission: cached=%v state=%s, want cached done", st2.Cached, st2.State)
	}
	if !bytes.Equal(st2.Result, first) {
		t.Fatalf("cached result differs from the original")
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Cached != 1 || stats.Skip.SimRuns != 1 {
		t.Fatalf("jobs.cached = %d, skip.sim_runs = %d, want 1 and 1 (exactly one simulation)",
			stats.Jobs.Cached, stats.Skip.SimRuns)
	}
}

// TestSkipStatsSurfaced checks every surface the two-speed-clock summary is
// served on: the done JobStatus, the X-Smtdram-Skip-* headers beside the
// byte-identical /result body, the /v1/stats aggregate, and a cache-hit
// answer replaying the producing run's numbers.
func TestSkipStatsSurfaced(t *testing.T) {
	srv := server.New(server.Config{Logger: testLogger(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := client.New(ts.URL)
	ctx := context.Background()

	st, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.Skip == nil {
		t.Fatal("done JobStatus carries no skip summary")
	}
	if st.Skip.Wall == 0 || st.Skip.Skipped == 0 || st.Skip.Skipped > st.Skip.Wall {
		t.Fatalf("implausible skip summary: %+v", st.Skip)
	}
	if want := float64(st.Skip.Skipped) / float64(st.Skip.Wall); st.Skip.Rate != want {
		t.Fatalf("skip rate %v != skipped/wall %v", st.Skip.Rate, want)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Smtdram-Skipped-Cycles"); got != fmt.Sprint(st.Skip.Skipped) {
		t.Fatalf("X-Smtdram-Skipped-Cycles = %q, want %d", got, st.Skip.Skipped)
	}
	if got := resp.Header.Get("X-Smtdram-Wall-Cycles"); got != fmt.Sprint(st.Skip.Wall) {
		t.Fatalf("X-Smtdram-Wall-Cycles = %q, want %d", got, st.Skip.Wall)
	}
	if resp.Header.Get("X-Smtdram-Skiprate") == "" {
		t.Fatal("result response missing X-Smtdram-Skiprate")
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skip.SimRuns != 1 || stats.Skip.CyclesSkipped != st.Skip.Skipped || stats.Skip.CyclesWall != st.Skip.Wall {
		t.Fatalf("stats skip aggregate %+v does not match the run's %+v", stats.Skip, st.Skip)
	}
	if stats.Skip.Rate != st.Skip.Rate {
		t.Fatalf("stats skip rate %v != run rate %v", stats.Skip.Rate, st.Skip.Rate)
	}

	// A cache hit must replay the producing run's summary without rerunning.
	st2, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != server.StateDone {
		t.Fatalf("second submission: cached=%v state=%s, want cached done", st2.Cached, st2.State)
	}
	if st2.Skip == nil || *st2.Skip != *st.Skip {
		t.Fatalf("cached skip summary %+v differs from the producing run's %+v", st2.Skip, st.Skip)
	}
}

// TestSSEProgressThenDone consumes a real simulation's event stream through
// the client: at least one progress sample, then the done event.
func TestSSEProgressThenDone(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{ProgressInterval: 1_000})
	ctx := context.Background()

	w, tgt := uint64(0), uint64(200_000)
	st, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt})
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var terminal client.Event
	err = c.Events(ctx, st.ID, func(ev client.Event) error {
		if ev.Name == "progress" {
			progress++
			var p core.Progress
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				return err
			}
			if p.TargetTotal != tgt {
				t.Errorf("progress target_total = %d, want %d", p.TargetTotal, tgt)
			}
		} else {
			terminal = ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatalf("saw no progress events before the terminal event")
	}
	if terminal.Name != "done" {
		t.Fatalf("terminal event = %q, want done", terminal.Name)
	}
}

// TestFigureSweep runs the cheapest figure job end to end and checks the
// envelope, plus the figure result cache.
func TestFigureSweep(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()

	st, err := c.SubmitFigure(ctx, server.FigRequest{Fig: "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("figure job = %s (%s), want done", st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Fig    string `json:"fig"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Fig != "table2" || !strings.Contains(env.Output, "Table 2") {
		t.Fatalf("figure envelope = %+v, want table2 output", env)
	}

	st2, err := c.SubmitFigure(ctx, server.FigRequest{Fig: "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("second identical figure submission should hit the cache")
	}
}

// TestBadRequests: malformed bodies, unknown knobs, and unknown jobs map to
// 400/404, not 500s or hung jobs.
func TestBadRequests(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()

	checkCode := func(err error, want int, what string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != want {
			t.Fatalf("%s: err = %v, want APIError %d", what, err, want)
		}
	}

	_, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"no-such-app"}})
	checkCode(err, http.StatusBadRequest, "unknown app")
	_, err = c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, DRAM: "sdram"})
	checkCode(err, http.StatusBadRequest, "unknown dram kind")
	_, err = c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, Faults: "bitflip:rate=1e-6"})
	checkCode(err, http.StatusBadRequest, "removed fault clause")
	_, err = c.SubmitFigure(ctx, server.FigRequest{Fig: "11"})
	checkCode(err, http.StatusBadRequest, "unknown figure")
	_, err = c.Job(ctx, "j-999999")
	checkCode(err, http.StatusNotFound, "unknown job")
	_, err = c.Result(ctx, "j-999999")
	checkCode(err, http.StatusNotFound, "unknown job result")

	// A request body with unknown fields is rejected up front.
	resp, err := http.Post(c.BaseURL+"/v1/sim", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}
}

// TestDrainRejectsNewWork: a draining daemon answers 503 and Drain returns
// once in-flight work is done.
func TestDrainRejectsNewWork(t *testing.T) {
	srv, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain of an idle daemon: %v", err)
	}
	_, err := c.SubmitSim(ctx, smallSim())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %v, want 503", err)
	}
}

// TestCancelOneFigureKeepsSiblingSweep: two figure sweeps with the same
// warmup and seed share warmup checkpoints — every figure forks the reference
// machine's alone-IPC baselines from one prefix. Cancelling the first job must
// not fail the second through a shared warmup: it finishes done, with the
// bytes a solo run of the same figure produces.
func TestCancelOneFigureKeepsSiblingSweep(t *testing.T) {
	ctx := context.Background()
	first := server.FigRequest{Fig: "6", Warmup: 10_000, Target: 1_000}
	second := server.FigRequest{Fig: "3", Warmup: 10_000, Target: 1_000}

	_, solo := newTestDaemon(t, server.Config{})
	st, err := solo.SubmitFigure(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = solo.Wait(ctx, st.ID, 0); err != nil || st.State != server.StateDone {
		t.Fatalf("solo figure: %v, state %s (%s)", err, st.State, st.Error)
	}
	want, err := solo.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestDaemon(t, server.Config{Workers: 2, Logger: testLogger(t)})
	a, err := c.SubmitFigure(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitFigure(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	for { // both sweeps are on workers, warming the shared prefixes
		sa, errA := c.Job(ctx, a.ID)
		sb, errB := c.Job(ctx, b.ID)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if sa.State != server.StateQueued && sb.State != server.StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st, err := c.Cancel(ctx, a.ID); err != nil || st.State != server.StateCancelled {
		t.Fatalf("cancel first figure: %v, state %s", err, st.State)
	}
	if b, err = c.Wait(ctx, b.ID, 0); err != nil || b.State != server.StateDone {
		t.Fatalf("sibling figure after the cancel: %v, state %s (%s)", err, b.State, b.Error)
	}
	got, err := c.Result(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sibling figure diverged from a solo run\ngot:  %s\nwant: %s", got, want)
	}
}

// fakeAdmission charges from fixed per-tenant budgets and counts every charge.
type fakeAdmission struct {
	mu      sync.Mutex
	budget  map[string]int
	charged map[string]int
}

func (f *fakeAdmission) Charge(tenant string) (bool, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.charged[tenant]++
	if f.budget[tenant] == 0 {
		return false, 2500 * time.Millisecond
	}
	f.budget[tenant]--
	return true, 0
}

// TestTenantAdmissionOnWorker: a daemon with no coordinator in front of it
// enforces Config.Admission itself. An over-quota tenant gets 429 with the
// bucket's own Retry-After and its name echoed, another tenant is still
// admitted, and an answer from the cache is charged like any other request.
func TestTenantAdmissionOnWorker(t *testing.T) {
	adm := &fakeAdmission{budget: map[string]int{"alice": 2, "bob": 1}, charged: map[string]int{}}
	_, c := newTestDaemon(t, server.Config{Admission: adm})
	body, _ := json.Marshal(smallSim())
	post := func(tenant string) (*http.Response, server.JobStatus) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/sim", bytes.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Smtdram-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st server.JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp, st
	}

	resp, st := post("alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice submission: %d, want 202", resp.StatusCode)
	}
	if _, err := c.Wait(context.Background(), st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if resp, st = post("alice"); resp.StatusCode != http.StatusOK || !st.Cached {
		t.Fatalf("repeat alice submission: %d cached=%v, want a 200 cache answer", resp.StatusCode, st.Cached)
	}
	if adm.charged["alice"] != 2 {
		t.Fatalf("alice charged %d times, want 2: the cached answer is priced too", adm.charged["alice"])
	}
	resp, _ = post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota alice: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want the bucket's 2.5s rounded up to 3", ra)
	}
	if got := resp.Header.Get("X-Smtdram-Tenant"); got != "alice" {
		t.Fatalf("X-Smtdram-Tenant = %q, want alice", got)
	}
	if resp, st = post("bob"); resp.StatusCode != http.StatusOK || !st.Cached {
		t.Fatalf("bob while alice is shed: %d cached=%v, want admitted", resp.StatusCode, st.Cached)
	}
	if resp, _ = post(""); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("X-Smtdram-Tenant") != "default" {
		t.Fatalf("headerless submission: %d tenant %q, want the default tenant's 429",
			resp.StatusCode, resp.Header.Get("X-Smtdram-Tenant"))
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.QuotaRejected != 2 || stats.Jobs.Rejected != 2 {
		t.Fatalf("quota_rejected=%d rejected=%d, want 2/2", stats.Jobs.QuotaRejected, stats.Jobs.Rejected)
	}
}

// TestValidNodeID: a node id is one or more of [A-Za-z0-9_], so every job id
// it mints ("j-<node>-<n>") routes as one path segment.
func TestValidNodeID(t *testing.T) {
	for id, ok := range map[string]bool{
		"w1":       true,
		"W_2":      true,
		"node_007": true,
		"_":        true,
		"":         false,
		"a-b":      false,
		"a/b":      false,
		"a b":      false,
		"a.b":      false,
		"a?b":      false,
		"a%2Fb":    false,
		"wé":       false,
	} {
		if err := server.ValidNodeID(id); (err == nil) != ok {
			t.Errorf("ValidNodeID(%q) = %v, want ok=%v", id, err, ok)
		}
	}
}
