// Package chaostest kill-9s the real smtdramd binary at randomized points in
// the job lifecycle and checks the durability contract after every restart:
//
//   - no lost jobs: every submission the daemon acknowledged with 202 is
//     still known after recovery, and eventually reaches done;
//   - no duplicated completions: each job id resolves to exactly one result;
//   - byte-identical results: everything served after any number of crashes
//     equals json.Marshal(core.Run(cfg)) for the same configuration — the
//     same oracle the in-process server tests use.
//
// The harness builds cmd/smtdramd with the local toolchain, launches it as a
// subprocess against a shared -data-dir, drives it over HTTP with the client
// package, and SIGKILLs it with randomized timing: mid-run, mid-write, and —
// on a fraction of cycles — a double-kill landing mid-recovery. Determinism
// is what makes the oracle cheap: a fingerprint names its result forever, so
// "recovered correctly" is a byte comparison, not a heuristic.
package chaostest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
	"smtdram/internal/store"
)

// buildDaemon compiles cmd/smtdramd into dir and returns the binary path.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "smtdramd")
	cmd := exec.Command("go", "build", "-o", bin, "smtdram/cmd/smtdramd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building smtdramd: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves an ephemeral port and releases it for the daemon. The
// same port is reused across restarts so job handles stay valid URLs.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// daemon is one subprocess incarnation of smtdramd.
type daemon struct {
	cmd *exec.Cmd
}

// startDaemon launches the binary against dataDir and waits for liveness.
// Readiness may lag (recovery re-runs), which is exactly what the chaos
// cycles want to interrupt.
func startDaemon(t *testing.T, bin, dataDir string, port int) *daemon {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	deadline := time.Now().Add(15 * time.Second)
	for {
		cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-quiet", "-drain-timeout", "5s")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting smtdramd: %v", err)
		}
		d := &daemon{cmd: cmd}
		if d.waitLive(port, 5*time.Second) {
			return d
		}
		// Bind race with the previous incarnation's dying socket: reap and
		// retry until the overall deadline.
		d.kill()
		if time.Now().After(deadline) {
			t.Fatalf("smtdramd never became live on %s", addr)
		}
	}
}

func (d *daemon) waitLive(port int, timeout time.Duration) bool {
	c := client.New(fmt.Sprintf("http://127.0.0.1:%d", port))
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		err := c.Healthz(ctx)
		cancel()
		if err == nil {
			return true
		}
		if d.cmd.ProcessState != nil {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// kill SIGKILLs the incarnation and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_, _ = d.cmd.Process.Wait()
}

// stop shuts the incarnation down gracefully (SIGTERM, drain) so the final
// verification daemon leaves a clean journal behind.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = d.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// workload is the request pool: distinct fingerprints, each small enough that
// a kill can land before, during, or after its run.
func workload() []server.SimRequest {
	var reqs []server.SimRequest
	for _, n := range []uint64{10_000, 14_000, 18_000, 22_000, 26_000, 30_000} {
		w, tgt := uint64(2_000), n
		reqs = append(reqs, server.SimRequest{Apps: []string{"mcf"}, Warmup: &w, Target: &tgt})
	}
	return reqs
}

// controls runs every workload request in-process: the byte-identity oracle.
func controls(t *testing.T, reqs []server.SimRequest) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// accepted is one job the daemon acknowledged with 202 and must never lose.
type accepted struct {
	id  string
	req int // workload index
}

// submitSome pushes a random prefix of the workload at the daemon. Jobs
// answered synchronously from cache (202-free path) are verified on the spot
// and not tracked: a cache answer delivers the result in the same response,
// so there is nothing left to lose. 429s are retried briefly; a dead daemon
// (killed mid-loop by the caller's timer on a previous cycle) just ends the
// batch.
func submitSome(t *testing.T, c *client.Client, rng *rand.Rand, reqs []server.SimRequest, want [][]byte) []accepted {
	t.Helper()
	var acks []accepted
	n := 1 + rng.Intn(len(reqs))
	for _, i := range rng.Perm(len(reqs))[:n] {
		var st server.JobStatus
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			st, err = c.SubmitSim(ctx, reqs[i])
			cancel()
			var ra *client.RetryAfterError
			if errors.As(err, &ra) {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			break
		}
		if err != nil {
			return acks // daemon gone or still saturated; the cycle moves on
		}
		if st.Cached {
			if string(st.Result) != string(want[i]) {
				t.Fatalf("cached answer for workload[%d] differs from direct run", i)
			}
			continue
		}
		acks = append(acks, accepted{id: st.ID, req: i})
	}
	return acks
}

// TestKill9Recovery is the chaos loop: randomized SIGKILL/restart cycles with
// full-workload verification at the end. 20 cycles normally, 6 under -short.
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Log("short mode: 6 chaos cycles")
	}
	cycles := 20
	if testing.Short() {
		cycles = 6
	}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos seed %d", seed)

	bin := buildDaemon(t, t.TempDir())
	dataDir := t.TempDir()
	port := freePort(t)
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	c := client.New(url)

	reqs := workload()
	want := controls(t, reqs)
	tracked := map[string]int{} // job id -> workload index, every 202 ever issued

	for cycle := 0; cycle < cycles; cycle++ {
		d := startDaemon(t, bin, dataDir, port)

		for _, a := range submitSome(t, c, rng, reqs, want) {
			if prev, dup := tracked[a.id]; dup {
				t.Fatalf("cycle %d: job id %s issued twice (workload %d and %d)", cycle, a.id, prev, a.req)
			}
			tracked[a.id] = a.req
		}

		// Let the kill land anywhere in the lifecycle: before the first run
		// starts, mid-run, or mid-result-write.
		time.Sleep(time.Duration(rng.Intn(60)) * time.Millisecond)
		d.kill()

		// A quarter of the cycles kill again almost immediately after
		// restart, landing mid-recovery (journal rotation, re-enqueued runs).
		if rng.Intn(4) == 0 {
			d = startDaemon(t, bin, dataDir, port)
			time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
			d.kill()
		}
	}

	// Final incarnation: wait for full readiness (recovery re-runs drained),
	// then verify the whole contract.
	d := startDaemon(t, bin, dataDir, port)
	defer d.kill()
	ctx := context.Background()
	waitReady(t, c, 60*time.Second)

	for id, i := range tracked {
		st, err := c.Wait(ctx, id, 0)
		if err != nil {
			t.Errorf("job %s (workload %d) lost after recovery: %v", id, i, err)
			continue
		}
		if st.State != server.StateDone {
			t.Errorf("job %s (workload %d) recovered to %s (%s), want done", id, i, st.State, st.Error)
			continue
		}
		got, err := c.Result(ctx, id)
		if err != nil {
			t.Errorf("job %s result: %v", id, err)
			continue
		}
		if string(got) != string(want[i]) {
			t.Errorf("job %s (workload %d): result differs from never-killed control", id, i)
		}
	}
	t.Logf("verified %d acknowledged jobs across %d kill cycles", len(tracked), cycles)

	// Warm-restart measurement: resubmit the full workload; every answer must
	// now come straight from the store/LRU ladder.
	warmHits := 0
	for i, req := range reqs {
		st, err := c.SubmitSim(ctx, req)
		if err != nil {
			t.Fatalf("warm resubmission of workload[%d]: %v", i, err)
		}
		if st.Cached {
			warmHits++
			if string(st.Result) != string(want[i]) {
				t.Errorf("warm cached answer for workload[%d] differs from control", i)
			}
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm restart: %d/%d resubmissions served from cache ladder; store entries=%d hits=%d corrupt=%d",
		warmHits, len(reqs), stats.Store.Entries, stats.Store.Hits, stats.Store.Corrupt)
	if warmHits != len(reqs) {
		t.Errorf("warm restart served %d/%d from cache, want all (store degraded=%v)",
			warmHits, len(reqs), stats.Store.Degraded)
	}

	writeBench(t, benchReport{
		Cycles:          cycles,
		Seed:            seed,
		TrackedJobs:     len(tracked),
		WorkloadSize:    len(reqs),
		WarmCacheHits:   warmHits,
		WarmHitRatio:    float64(warmHits) / float64(len(reqs)),
		StoreEntries:    stats.Store.Entries,
		StoreHits:       stats.Store.Hits,
		StoreCorrupt:    stats.Store.Corrupt,
		JournalReplayed: stats.Recovery.ReplayedRecords,
		JobsRehydrated:  stats.Recovery.Rehydrated,
		JobsReenqueued:  stats.Recovery.Reenqueued,
	})

	// Clean shutdown, then a fresh recovery must compact the journal to one
	// record per live job — the no-unbounded-growth half of the contract.
	d.stop()
	d2 := startDaemon(t, bin, dataDir, port)
	waitReady(t, c, 60*time.Second)
	d2.stop()
	recs, err := store.ReadJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	perJob := map[string]int{}
	for _, r := range recs {
		perJob[r.Job]++
	}
	for id, n := range perJob {
		if n != 1 {
			t.Errorf("compacted journal holds %d records for %s, want 1", n, id)
		}
	}
}

func waitReady(t *testing.T, c *client.Client, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		rep, err := c.Readyz(ctx)
		cancel()
		if err == nil && rep.Ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready (err=%v, reasons=%v)", err, rep.Reasons)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// benchReport is the optional warm-restart report: the cache-hit ratio after
// the last restart, plus the recovery tallies behind it.
type benchReport struct {
	Cycles          int     `json:"cycles"`
	Seed            int64   `json:"seed"`
	TrackedJobs     int     `json:"tracked_jobs"`
	WorkloadSize    int     `json:"workload_size"`
	WarmCacheHits   int     `json:"warm_cache_hits"`
	WarmHitRatio    float64 `json:"warm_hit_ratio"`
	StoreEntries    int     `json:"store_entries"`
	StoreHits       uint64  `json:"store_hits"`
	StoreCorrupt    uint64  `json:"store_corrupt"`
	JournalReplayed int     `json:"journal_replayed_records"`
	JobsRehydrated  int     `json:"jobs_rehydrated"`
	JobsReenqueued  int     `json:"jobs_reenqueued"`
}

// writeBench records the chaos run's measurements when CHAOS_BENCH_OUT names
// a destination file.
func writeBench(t *testing.T, rep benchReport) {
	t.Helper()
	path := os.Getenv("CHAOS_BENCH_OUT")
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("bench report written to %s", path)
}
