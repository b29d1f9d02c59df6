package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/fleet"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
)

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

// smallSim builds a quick simulation whose seed doubles as the knob that
// moves its shard key around the ring.
func smallSim(seed int64) server.SimRequest {
	w, tgt := uint64(2_000), uint64(20_000)
	return server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt, Seed: &seed}
}

// directBytes is what `smtdram -json` would print for the request — the
// byte-identity reference for everything the fleet serves.
func directBytes(t *testing.T, req server.SimRequest) []byte {
	t.Helper()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startFleet(t *testing.T, cfg fleet.LocalConfig) *fleet.LocalFleet {
	t.Helper()
	if cfg.Coordinator.ProbeInterval == 0 {
		cfg.Coordinator.ProbeInterval = 20 * time.Millisecond
	}
	f, err := fleet.StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitReady(len(cfg.Nodes), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

func submitAndWait(t *testing.T, c *client.Client, req server.SimRequest) (server.JobStatus, []byte) {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s state = %s (%s), want done", st.ID, st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st, got
}

// TestFleetForwardByteIdentityAndCacheHit: a coordinator-served result is
// byte-identical to a direct run, job ids embed their worker, and a repeat
// submission through the coordinator is a cache hit on the same worker.
func TestFleetForwardByteIdentityAndCacheHit(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}, {ID: "w2"}},
		Worker: server.Config{Logger: testLogger(t)},
	})
	c := client.New(f.CoordURL)
	req := smallSim(1)
	want := directBytes(t, req)

	st, got := submitAndWait(t, c, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from direct run:\n got %s\nwant %s", got, want)
	}
	node := fleet.NodeOfJobID(st.ID)
	if node != "w1" && node != "w2" {
		t.Fatalf("job id %q embeds node %q, want w1 or w2", st.ID, node)
	}

	st2, got2 := submitAndWait(t, c, req)
	if !st2.Cached {
		t.Fatalf("repeat submission not served from cache: %+v", st2)
	}
	if fleet.NodeOfJobID(st2.ID) != node {
		t.Fatalf("repeat routed to %s, first to %s — ring not deterministic", fleet.NodeOfJobID(st2.ID), node)
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("cached fleet result differs from direct run")
	}
	// A worker's stats live on the worker; the coordinator's status is
	// /v1/fleet. A client asking the coordinator for server.Stats gets a 404,
	// not a FleetStatus to decode.
	var apiErr *client.APIError
	if _, err := c.Stats(context.Background()); !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound {
		t.Fatalf("client.Stats against the coordinator: %v; want a 404 (its status is /v1/fleet)", err)
	}
}

// TestFleetSSEForwarding: progress events stream live through the
// coordinator's reverse proxy and end with a terminal event. Live means the
// first progress event arrives while the job, polled through the
// coordinator, is not yet done: a proxy that held the stream back until the
// worker closed it would deliver every event after the run.
func TestFleetSSEForwarding(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}, {ID: "w2"}},
		Worker: server.Config{Logger: testLogger(t), ProgressInterval: 1},
	})
	c := client.New(f.CoordURL)
	ctx := context.Background()
	// Long enough that the stream attaches while the run is in flight.
	req := smallSim(2)
	tgt := uint64(1_000_000)
	req.Target = &tgt
	st, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var terminal string
	err = c.Events(ctx, st.ID, func(ev client.Event) error {
		if ev.Name == "progress" {
			if progress == 0 {
				now, err := c.Job(ctx, st.ID)
				if err != nil {
					return err
				}
				if now.State == server.StateDone {
					t.Errorf("first progress event arrived after the job was done")
				}
			}
			progress++
		} else {
			terminal = ev.Name
		}
		return nil
	})
	if err != nil {
		t.Fatalf("event stream through coordinator: %v", err)
	}
	if terminal != "done" {
		t.Fatalf("terminal event = %q, want done", terminal)
	}
	if progress == 0 {
		t.Fatal("no progress events crossed the coordinator proxy")
	}
}

// TestFleetCancelForwarding: DELETE /v1/jobs/{id} routes by the node in the
// job id and cancels the running simulation.
func TestFleetCancelForwarding(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}, {ID: "w2"}},
		Worker: server.Config{Logger: testLogger(t)},
	})
	c := client.New(f.CoordURL)
	ctx := context.Background()
	w, tgt, seed := uint64(0), uint64(2_000_000_000), int64(3)
	st, err := c.SubmitSim(ctx, server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", st.State)
	}
}

// TestFleetQuota429: the coordinator's fleet-wide tenant buckets reject the
// over-quota tenant with Retry-After while other tenants keep flowing.
func TestFleetQuota429(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}},
		Worker: server.Config{Logger: testLogger(t)},
		Coordinator: fleet.CoordinatorConfig{
			Quota: fleet.NewQuota(fleet.QuotaConfig{RatePerSec: 0.001, Burst: 1}),
		},
	})
	body, _ := json.Marshal(smallSim(1))
	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, f.CoordURL+"/v1/sim", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Smtdram-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// Accepted (202) on a fresh run, OK (200) on a cache-served repeat —
	// both count as admitted.
	admitted := func(code int) bool { return code == http.StatusAccepted || code == http.StatusOK }
	if resp := post("alice"); !admitted(resp.StatusCode) {
		t.Fatalf("first submission: %d, want 2xx", resp.StatusCode)
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if resp := post("bob"); !admitted(resp.StatusCode) {
		t.Fatalf("other tenant blocked by alice's quota: %d", resp.StatusCode)
	}
	if st := f.Coord.Status(); st.QuotaRejected != 1 {
		t.Fatalf("coordinator quota_rejected = %d, want 1", st.QuotaRejected)
	}
}

// TestCoordinatorEjectionReadmission drives membership with stub workers
// whose readiness is a switch: FailAfter consecutive bad probes eject, one
// good probe re-admits, and /v1/fleet narrates both.
func TestCoordinatorEjectionReadmission(t *testing.T) {
	mkStub := func(id string) (*httptest.Server, *atomic.Bool) {
		var ready atomic.Bool
		ready.Store(true)
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/fleet/self" {
				http.NotFound(w, r)
				return
			}
			_ = json.NewEncoder(w).Encode(server.NodeSelf{NodeID: id, Role: "worker", Ready: ready.Load()})
		}))
		t.Cleanup(s.Close)
		return s, &ready
	}
	s1, _ := mkStub("w1")
	s2, ready2 := mkStub("w2")

	c := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Workers:       []string{s1.URL, s2.URL},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     2,
		Logger:        testLogger(t),
	})
	defer c.Close()

	waitReady := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.ReadyWorkers() != n {
			if time.Now().After(deadline) {
				t.Fatalf("ready workers = %d, want %d", c.ReadyWorkers(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitReady(2)
	ready2.Store(false)
	waitReady(1)
	ready2.Store(true)
	waitReady(2)

	st := c.Status()
	for _, m := range st.Members {
		if m.NodeID != "w2" {
			continue
		}
		if m.Ejections == 0 || m.Readmissions == 0 {
			t.Fatalf("w2 ejections=%d readmissions=%d, want both > 0", m.Ejections, m.Readmissions)
		}
	}
}

// TestFleetKillWorkerDegrades: killing one of two workers leaves a serving
// 1-node fleet — the survivor owns the whole ring and results stay
// byte-identical.
func TestFleetKillWorkerDegrades(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}, {ID: "w2"}},
		Worker: server.Config{Logger: testLogger(t)},
		Coordinator: fleet.CoordinatorConfig{
			ProbeInterval: 10 * time.Millisecond,
			FailAfter:     2,
		},
	})
	f.Workers[1].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for f.Coord.ReadyWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never ejected the killed worker (ready=%d)", f.Coord.ReadyWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c := client.New(f.CoordURL)
	req := smallSim(7)
	want := directBytes(t, req)
	st, got := submitAndWait(t, c, req)
	if node := fleet.NodeOfJobID(st.ID); node != "w1" {
		t.Fatalf("routed to %s after w2's death, want w1", node)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded-fleet result differs from direct run")
	}

	resp, err := http.Get(f.CoordURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d with one live worker, want 200", resp.StatusCode)
	}
}

// NodeOfJobID round-trips the worker's id scheme.
func TestNodeOfJobID(t *testing.T) {
	cases := map[string]string{
		"j-w2-7":    "w2",
		"j-node9-1": "node9",
		"j-42":      "",
		"weird":     "",
		"j-":        "",
	}
	for id, want := range cases {
		if got := fleet.NodeOfJobID(id); got != want {
			t.Errorf("NodeOfJobID(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestNodeIdentifiesItself: each process of a fleet names itself on its one
// readout — a worker on /v1/stats, the coordinator on /v1/fleet — and serves
// no other rendering of its counters.
func TestNodeIdentifiesItself(t *testing.T) {
	f := startFleet(t, fleet.LocalConfig{
		Nodes:  []fleet.LocalNode{{ID: "w1"}},
		Worker: server.Config{Logger: testLogger(t)},
	})
	st, err := client.New(f.Workers[0].URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "w1" || st.Role != "worker" {
		t.Errorf("worker stats name %q/%q, want w1/worker", st.NodeID, st.Role)
	}
	if fs := f.Coord.Status(); fs.NodeID != "coordinator" || fs.Role != "coordinator" {
		t.Errorf("fleet status names %q/%q, want coordinator/coordinator", fs.NodeID, fs.Role)
	}
	for _, base := range []string{f.Workers[0].URL, f.CoordURL} {
		for _, path := range []string{"/metrics", "/debug/dash", "/debug/dash/stream"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s%s = %d, want 404", base, path, resp.StatusCode)
			}
		}
	}
}
