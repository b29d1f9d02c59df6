package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
	"smtdram/internal/store"
)

// directRunBytes computes what `smtdram -json` would print for req — the
// byte-identity oracle for everything the durable path serves.
func directRunBytes(t *testing.T, req server.SimRequest) []byte {
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

// TestRestartRehydratesDoneJob: a finished job survives a restart — its id
// still answers, its result bytes are identical, and a fresh submission of
// the same configuration is served from the disk tier without recomputing.
func TestRestartRehydratesDoneJob(t *testing.T) {
	dir := t.TempDir()
	req := smallSim()
	want := directRunBytes(t, req)
	ctx := context.Background()

	srv1, c1 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	st, err := c1.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c1.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	srv1.Close()

	// Second daemon, same data dir, empty LRU and job table.
	_, c2 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})

	// The old job id was rehydrated from the journal + store.
	got, err := c2.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("recovered job %s: %v", st.ID, err)
	}
	if string(got) != string(want) {
		t.Fatalf("rehydrated result differs from direct run:\n got %s\nwant %s", got, want)
	}

	// A fresh submission of the same configuration hits the disk tier: it is
	// answered synchronously as cached, with the same bytes, and the id is a
	// new one (the recovered id space is preserved, not reused).
	st2, err := c2.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("resubmission after restart: cached = false, want true (state %s)", st2.State)
	}
	if st2.ID == st.ID {
		t.Fatalf("fresh submission reused recovered id %s", st.ID)
	}
	got2, err := c2.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != string(want) {
		t.Fatalf("disk-tier result differs from direct run:\n got %s\nwant %s", got2, want)
	}

	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.Hits == 0 {
		t.Fatalf("store hits = 0 after rehydration + disk-tier serve; stats = %+v", stats.Store)
	}
	if stats.Recovery.Rehydrated == 0 {
		t.Fatalf("recovery rehydrated = 0, want >= 1")
	}
	if !stats.Store.Configured || stats.Store.Degraded {
		t.Fatalf("store health = %+v, want configured and not degraded", stats.Store.StoreHealth)
	}
}

// TestRecoveryReenqueuesInterruptedJob: a journal holding only a submitted
// record (the daemon died before the run finished) re-runs the job at startup
// under its original id, and the result is byte-identical to a direct run.
func TestRecoveryReenqueuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	req := smallSim()
	want := directRunBytes(t, req)
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-write the crashed daemon's journal: job j-7 accepted, never
	// resolved.
	writeJournal(t, dir, store.Record{
		Type: store.RecSubmitted, Job: "j-7", Kind: "sim",
		FP: "sim|" + cfg.Fingerprint(), Request: reqJSON,
	})

	_, c := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	ctx := context.Background()

	st, err := c.Wait(ctx, "j-7", 0)
	if err != nil {
		t.Fatalf("recovered job j-7: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("recovered job state = %s (%s), want done", st.State, st.Error)
	}
	got, err := c.Result(ctx, "j-7")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-run result differs from direct run:\n got %s\nwant %s", got, want)
	}

	// Once the re-run finishes, recovery is complete and the daemon is ready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, err := c.Readyz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready; reasons = %v", rep.Reasons)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fresh ids must not collide with the recovered id space.
	st2, err := c.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == "j-7" {
		t.Fatalf("fresh submission reused recovered id j-7")
	}
}

// writeJournal hand-writes a crashed daemon's journal into dir.
func writeJournal(t *testing.T, dir string, recs ...store.Record) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, err := store.OpenJournal(filepath.Join(dir, "journal.wal"), store.FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := jn.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFailsUnparsableJob: a journaled job whose request the binary no
// longer accepts (here a scheduling policy or a fault clause since removed)
// fails under its id instead of re-running, is not counted as re-enqueued, and its failure is
// journaled, so a second restart reads the same failure back without parsing
// the request again.
func TestRecoveryFailsUnparsableJob(t *testing.T) {
	dir := t.TempDir()
	good := smallSim()
	cfg, err := good.Config()
	if err != nil {
		t.Fatal(err)
	}
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir,
		store.Record{Type: store.RecSubmitted, Job: "j-7", Kind: "sim", FP: "sim|" + cfg.Fingerprint(), Request: goodJSON},
		store.Record{Type: store.RecSubmitted, Job: "j-8", Kind: "sim", FP: "sim|stale",
			Request: json.RawMessage(`{"apps":["mcf"],"policy":"criticality-based"}`)},
		store.Record{Type: store.RecSubmitted, Job: "j-9", Kind: "sim", FP: "sim|stale-faults",
			Request: json.RawMessage(`{"apps":["mcf"],"faults":"channel-fail:ch=1,at=100"}`)},
	)
	ctx := context.Background()

	stale := []string{"j-8", "j-9"}
	// check asserts the stale jobs' failures and the recovery count of one
	// daemon.
	check := func(c *client.Client, reenqueued int) {
		t.Helper()
		for _, id := range stale {
			st, err := c.Job(ctx, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if st.State != server.StateFailed || !strings.HasPrefix(st.Error, "recovery:") {
				t.Fatalf("%s: state %s, error %q; want failed with a recovery: error", id, st.State, st.Error)
			}
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Recovery.Reenqueued != reenqueued {
			t.Fatalf("recovery re-enqueued %d jobs, want %d", stats.Recovery.Reenqueued, reenqueued)
		}
	}

	srv1, c1 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	check(c1, 1)
	if st, err := c1.Wait(ctx, "j-7", 0); err != nil || st.State != server.StateDone {
		t.Fatalf("j-7: state %s (%v), want done", st.State, err)
	}
	srv1.Close()
	recs, err := store.ReadJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range stale {
		if !slices.ContainsFunc(recs, func(r store.Record) bool {
			return r.Job == id && r.Type == store.RecResolved && r.State == string(server.StateFailed) && strings.HasPrefix(r.Error, "recovery:")
		}) {
			t.Fatalf("the journal holds no failure for %s: %+v", id, recs)
		}
	}

	_, c2 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	check(c2, 0)
	resp, err := http.Get(c2.BaseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after the second restart: %d, want 200", resp.StatusCode)
	}
}

// TestReadyzSplitsFromHealthz: /healthz stays 200 in states where /readyz
// reports 503 — here, a data dir that cannot be opened (a regular file in
// the way) degrades the store to memory-only and flips readiness only.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c := newTestDaemon(t, server.Config{DataDir: blocked, Logger: testLogger(t)})
	ctx := context.Background()

	rep, err := c.Readyz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ready {
		t.Fatalf("readyz reports ready with an unopenable data dir")
	}
	if !rep.Store.Configured || !rep.Store.Degraded {
		t.Fatalf("store health = %+v, want configured and degraded", rep.Store)
	}

	// Liveness is unaffected: serving still works, memory-only.
	st, err := c.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("memory-only job state = %s (%s), want done", st.State, st.Error)
	}
}

// TestReadyzReportsDraining: Drain flips readiness off while liveness stays
// up, so a load balancer pulls the instance before shutdown.
func TestReadyzReportsDraining(t *testing.T) {
	srv, c := newTestDaemon(t, server.Config{Logger: testLogger(t)})
	ctx := context.Background()

	rep, err := c.Readyz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ready {
		t.Fatalf("fresh idle daemon unready; reasons = %v", rep.Reasons)
	}

	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rep, err = c.Readyz(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Ready {
		t.Fatalf("readyz reports ready while draining")
	}
}

// TestRestartCompactsJournal: after a clean lifecycle (submit, finish,
// restart), the rotated journal holds exactly one record per live job — no
// unbounded growth across restarts.
func TestRestartCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, c1 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	st, err := c1.SubmitSim(ctx, smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c1.Wait(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	srv1.Close()

	// First restart compacts submitted+started+resolved down to one record.
	srv2, _ := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	srv2.Close()

	recs, err := store.ReadJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	perJob := map[string]int{}
	for _, r := range recs {
		perJob[r.Job]++
	}
	if n := perJob[st.ID]; n != 1 {
		t.Fatalf("compacted journal has %d records for %s, want 1 (journal: %+v)", n, st.ID, recs)
	}
}

// TestCorruptStoreEntryRecomputed: a result entry damaged on disk is never
// served. After a restart the store's CRC catches the flipped byte, moves the
// file under quarantine/ and reports it corrupt; the job is recomputed, and
// both the recovered job and a fresh submission answer the first run's bytes.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	req := smallSim()
	ctx := context.Background()

	srv1, c1 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	st, err := c1.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c1.Wait(ctx, st.ID, 0); err != nil || st.State != server.StateDone {
		t.Fatalf("first run: state %s, err %v", st.State, err)
	}
	want, err := c1.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Flip one payload byte in the one entry the store holds.
	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries %v (err %v), want exactly one", entries, err)
	}
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-8] ^= 0xff
	if err := os.WriteFile(entries[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	if rec, err := c2.Wait(ctx, st.ID, 0); err != nil || rec.State != server.StateDone {
		t.Fatalf("recovered job: state %s, err %v", rec.State, err)
	}
	st2, err := c2.SubmitSim(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c2.Wait(ctx, st2.ID, 0); err != nil || st2.State != server.StateDone {
		t.Fatalf("resubmission: state %s, err %v", st2.State, err)
	}
	for _, id := range []string{st.ID, st2.ID} {
		got, err := c2.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("job %s after the corrupt entry:\n got %s\nwant %s", id, got, want)
		}
	}

	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store.Corrupt != 1 || stats.Store.Hits != 0 {
		t.Fatalf("store = %+v, want 1 corrupt read and no hit", stats.Store)
	}
	if stats.Skip.SimRuns != 1 {
		t.Fatalf("restarted daemon ran %d simulations, want the one recompute", stats.Skip.SimRuns)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want the corrupt entry", len(quarantined), err)
	}
}

// TestCheckpointsLiveInTheDataDir: warmup checkpoints share the data
// directory's one store. Fig 6 before a restart leaves its frames there, so
// Fig 7 after it, which shares Fig 6's 2C-1G, 4C-1G and 8C-1G warmup
// prefixes, forks from frames read back from disk: more hits and fewer
// simulated warmups than the same figure on a daemon with no store, and the
// same bytes.
func TestCheckpointsLiveInTheDataDir(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	runFig := func(c *client.Client, fig string) (json.RawMessage, server.Stats) {
		t.Helper()
		st, err := c.SubmitFigure(ctx, server.FigRequest{Fig: fig, Warmup: 2000, Target: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("fig %s = %s (%s), want done", fig, st.State, st.Error)
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Result, stats
	}

	srv1, c1 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	_, before := runFig(c1, "6")
	if before.Checkpoint.Misses == 0 || before.Store.Entries <= 1 {
		t.Fatalf("fig 6 left %d store entries after %d warmups; want its result and its frames",
			before.Store.Entries, before.Checkpoint.Misses)
	}
	srv1.Close()

	_, c2 := newTestDaemon(t, server.Config{DataDir: dir, Logger: testLogger(t)})
	got, after := runFig(c2, "7")
	_, c3 := newTestDaemon(t, server.Config{Logger: testLogger(t)})
	want, alone := runFig(c3, "7")
	if string(got) != string(want) {
		t.Fatal("fig 7 forked from stored frames differs from fig 7 on a daemon with no store")
	}
	if after.Checkpoint.Hits <= alone.Checkpoint.Hits || after.Checkpoint.Misses >= alone.Checkpoint.Misses {
		t.Fatalf("after restart: checkpoint hits %d, misses %d; with no store: hits %d, misses %d — want frames read back from the data dir",
			after.Checkpoint.Hits, after.Checkpoint.Misses, alone.Checkpoint.Hits, alone.Checkpoint.Misses)
	}
	if after.Store.Degraded {
		t.Fatalf("store health = %+v, want not degraded", after.Store.StoreHealth)
	}
}
