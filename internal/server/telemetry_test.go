package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
)

// TestStatsScrapeRace hammers /v1/stats and the trace of a running job while
// a burst of submissions (fresh runs, dedup joins, and cache hits) flows
// through the daemon. Run with -race this is the regression test for the
// read races: counters and histograms change from worker goroutines while the
// snapshot reads them, and the run loop, markRunning and finishJob write a
// job's phase instants while its trace reads them.
func TestStatsScrapeRace(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{Workers: 4, QueueDepth: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A job longer than the burst's, whose trace is read while it runs.
	lw, ltgt := uint64(2_000), uint64(40_000)
	long, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, Warmup: &lw, Target: &ltgt})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}

	done := make(chan struct{})
	var scrapeErr error
	var scrapeMu sync.Mutex
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/stats", "/v1/stats", "/v1/jobs/" + long.ID + "/trace", "/v1/stats"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := get(path); err != nil {
					scrapeMu.Lock()
					scrapeErr = err
					scrapeMu.Unlock()
					return
				}
			}
		}(path)
	}

	w, tgt := uint64(500), uint64(3_000)
	apps := []string{"mcf", "ammp", "art"}
	var subWg sync.WaitGroup
	for i := 0; i < 12; i++ {
		subWg.Add(1)
		go func(i int) {
			defer subWg.Done()
			req := server.SimRequest{Apps: []string{apps[i%len(apps)]}, Warmup: &w, Target: &tgt}
			st, err := c.SubmitSim(ctx, req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if _, err := c.Wait(ctx, st.ID, 0); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}(i)
	}
	subWg.Wait()
	if _, err := c.Wait(ctx, long.ID, 0); err != nil {
		t.Errorf("wait for the long job: %v", err)
	}
	close(done)
	wg.Wait()
	scrapeMu.Lock()
	defer scrapeMu.Unlock()
	if scrapeErr != nil {
		t.Fatalf("scrape during burst: %v", scrapeErr)
	}
}

// chromeEvents decodes a Chrome trace payload's events.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Pid   int            `json:"pid"`
		Ts    uint64         `json:"ts"`
		Dur   uint64         `json:"dur"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// wallSlice is one wall-clock slice of a job's trace.
type wallSlice struct {
	end  uint64 // ts + dur, µs
	args map[string]any
}

// readJobTrace fetches a job's trace and checks that every event carries the
// job id: it returns the wall slices by name and the cycle-event count.
func readJobTrace(t *testing.T, c *client.Client, id string) (map[string]wallSlice, int) {
	t.Helper()
	raw, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	wall := map[string]wallSlice{}
	var cycle int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.Args["job"] != id {
			t.Fatalf("event %q missing job=%s correlation: %v", ev.Name, id, ev.Args)
		}
		if ev.Pid != 1 {
			cycle++
			continue
		}
		if _, dup := wall[ev.Name]; dup {
			t.Fatalf("trace holds two %q slices", ev.Name)
		}
		wall[ev.Name] = wallSlice{end: ev.Ts + ev.Dur, args: ev.Args}
	}
	return wall, cycle
}

// waitRunning polls a job until a worker has picked it up.
func waitRunning(t *testing.T, c *client.Client, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == server.StateRunning {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want running", id, st.State)
		}
	}
}

// blockerSim is a simulation long enough to hold a worker until cancelled.
func blockerSim() server.SimRequest {
	w, tgt := uint64(2_000), uint64(50_000_000)
	return server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt}
}

// TestTracedJobTwoDomainTrace is the tentpole acceptance test: a job
// submitted with trace=true serves a result byte-identical to a direct run,
// and its /trace payload is one Chrome JSON document holding both clock
// domains — the job's wall-clock phases (admission/queue/run/respond plus the
// run loop's warmup/measure) and the simulation's cycle-domain lifecycle —
// every event correlated by the job id. A deduped rider's trace shows its own
// admission and respond and the run of the flight it rode; a cache hit's
// shows its admission and no run.
func TestTracedJobTwoDomainTrace(t *testing.T) {
	req := smallSim()
	req.Trace = true
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

	// A blocker holds the one worker while two identical traced submissions
	// queue behind it, so the second rides the first's flight.
	_, c := newTestDaemon(t, server.Config{Workers: 1, Logger: testLogger(t)})
	ctx := context.Background()
	blocker, err := c.SubmitSim(ctx, blockerSim())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, blocker.ID)
	first, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rider, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rider.Deduped {
		t.Fatalf("second submission %+v did not ride the first's flight", rider)
	}
	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{first.ID, rider.ID} {
		st, err := c.Wait(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("traced job %s = %s (%s), want done", id, st.State, st.Error)
		}
		got, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("traced result of %s differs from direct run:\n got %s\nwant %s", id, got, want)
		}
	}
	hit, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("third submission %+v was not answered from the cache", hit)
	}

	ran := []string{"run", "warmup", "measure", "respond"}
	for _, row := range []struct {
		name, id, outcome string
		want, absent      []string
		cycle             bool
	}{
		{"initiator", first.ID, "admitted", append([]string{"job", "admission", "queue_wait"}, ran...), nil, true},
		{"deduped rider", rider.ID, "deduped", append([]string{"job", "admission"}, ran...), nil, true},
		{"cache hit", hit.ID, "cache_hit", []string{"job", "admission"}, append([]string{"queue_wait"}, ran...), false},
	} {
		t.Run(row.name, func(t *testing.T) {
			wall, cycle := readJobTrace(t, c, row.id)
			for _, name := range row.want {
				if _, ok := wall[name]; !ok {
					t.Fatalf("trace is missing the %q slice (have %v)", name, wall)
				}
			}
			for _, name := range row.absent {
				if _, ok := wall[name]; ok {
					t.Fatalf("trace holds a %q slice it should not", name)
				}
			}
			if got := wall["admission"].args["outcome"]; got != row.outcome {
				t.Fatalf("admission outcome = %v, want %s", got, row.outcome)
			}
			if (cycle > 0) != row.cycle {
				t.Fatalf("trace has %d cycle-domain events, want them: %v", cycle, row.cycle)
			}
		})
	}
}

// TestJobTraceOutlivesCacheHits: a job's trace lasts as long as the job
// table tracks the job. The table holds 4,096 jobs by default, so after 4,094
// cache hits the first job is still tracked, and its trace still holds its
// seven wall phases.
func TestJobTraceOutlivesCacheHits(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	st, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil || st.State != server.StateDone {
		t.Fatalf("job %s: %s, %v", st.ID, st.State, err)
	}
	before, _ := readJobTrace(t, c, st.ID)
	if len(before) != 7 {
		t.Fatalf("finished job's trace holds %d wall slices, want 7: %v", len(before), before)
	}

	const hits, clients = 4094, 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < hits; i += clients {
				hit, err := c.SubmitSim(ctx, smallSim())
				if err != nil || !hit.Cached {
					t.Errorf("cache hit %d: %+v, %v", i, hit, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if stats, err := c.Stats(ctx); err != nil || stats.Jobs.Tracked != hits+1 {
		t.Fatalf("the table tracks %d jobs (%v), want %d", stats.Jobs.Tracked, err, hits+1)
	}
	after, _ := readJobTrace(t, c, st.ID)
	if len(after) != 7 {
		t.Fatalf("after %d cache hits the first job's trace holds %d wall slices, want 7: %v", hits, len(after), after)
	}
}

// TestQueuedCancelEndsQueueWait: a job cancelled while queued behind a busy
// worker has a closed trace: its queue_wait ends at the cancel instant, where
// the job ends, and nothing is left open and drawn on to now.
func TestQueuedCancelEndsQueueWait(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()
	blocker, err := c.SubmitSim(ctx, blockerSim())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, blocker.ID)
	queued, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(ctx, queued.ID); err != nil || st.State != server.StateCancelled {
		t.Fatalf("cancel: %+v, %v", st, err)
	}
	time.Sleep(20 * time.Millisecond) // an open phase would be drawn on past the cancel

	wall, _ := readJobTrace(t, c, queued.ID)
	for name, sl := range wall {
		if sl.args["open"] != nil {
			t.Fatalf("the cancelled job's %q slice is open: %v", name, sl.args)
		}
	}
	job, qw := wall["job"], wall["queue_wait"]
	if qw.args == nil || qw.end != job.end {
		t.Fatalf("queue_wait ends at %dµs, want the cancel instant %dµs (slices %v)", qw.end, job.end, wall)
	}
	if _, ok := wall["run"]; ok {
		t.Fatalf("a job cancelled while queued shows a run")
	}
	if job.args["state"] != string(server.StateCancelled) {
		t.Fatalf("job slice state = %v, want cancelled", job.args["state"])
	}
}

// TestUntracedJobTraceWallOnly: without trace=true the job still has its
// wall-clock phases, just no cycle-domain events.
func TestUntracedJobTraceWallOnly(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{})
	ctx := context.Background()
	st, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var wall, cycle int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.Pid == 1 {
			wall++
		} else {
			cycle++
		}
	}
	if wall == 0 {
		t.Fatalf("untraced job has no wall-clock phases")
	}
	if cycle != 0 {
		t.Fatalf("untraced job leaked %d cycle-domain events", cycle)
	}
}

// TestStatsPhasePartition: /v1/stats reports served jobs whose per-phase
// latencies (admission + queue + run + respond) sum to the end-to-end served
// latency — the partition is exact in wall time, so the histogram sums may
// differ only by microsecond truncation.
func TestStatsPhasePartition(t *testing.T) {
	_, c := newTestDaemon(t, server.Config{Workers: 2})
	ctx := context.Background()

	w, tgt := uint64(1_000), uint64(8_000)
	for _, app := range []string{"mcf", "ammp", "art"} {
		st, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{app}, Warmup: &w, Target: &tgt})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("%s: state %s (%s)", app, st.State, st.Error)
		}
	}
	// And one cache hit, which must land in the cache summary, not served.
	if _, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Accepted != 4 || st.Jobs.Completed != 3 || st.Jobs.Cached != 1 {
		t.Fatalf("jobs = %+v, want 4 accepted (3 served + 1 cache hit), 3 completed, 1 cached", st.Jobs)
	}
	if st.Workers.Total != 2 {
		t.Fatalf("workers.total = %d, want 2", st.Workers.Total)
	}
	if st.EndToEnd.Served.Count != 3 {
		t.Fatalf("served count = %d, want 3", st.EndToEnd.Served.Count)
	}
	if st.EndToEnd.Cache.Count != 1 {
		t.Fatalf("cache-hit count = %d, want 1", st.EndToEnd.Cache.Count)
	}
	for name, ph := range map[string]server.LatencySummary{
		"admission": st.Phases.Admission, "queue": st.Phases.Queue,
		"run": st.Phases.Run, "respond": st.Phases.Respond,
	} {
		if ph.Count != 3 {
			t.Fatalf("phase %s count = %d, want 3 (one per served job)", name, ph.Count)
		}
	}
	phaseSum := st.Phases.Admission.MeanMs + st.Phases.Queue.MeanMs +
		st.Phases.Run.MeanMs + st.Phases.Respond.MeanMs
	e2e := st.EndToEnd.Served.MeanMs
	// Each phase observation truncates < 1µs, so the per-job discrepancy is
	// bounded by 5µs = 0.005ms; allow double for slack.
	if diff := e2e - phaseSum; diff < -0.01 || diff > 0.01 {
		t.Fatalf("phase means sum to %.4fms but end-to-end mean is %.4fms (diff %.4fms)",
			phaseSum, e2e, e2e-phaseSum)
	}
	if st.EndToEnd.Served.P50Ms <= 0 || st.Phases.Run.P95Ms <= 0 {
		t.Fatalf("percentiles not populated: served p50=%v run p95=%v",
			st.EndToEnd.Served.P50Ms, st.Phases.Run.P95Ms)
	}
	if st.Runtime.Goroutines <= 0 {
		t.Fatalf("runtime vitals missing: %+v", st.Runtime)
	}
}
