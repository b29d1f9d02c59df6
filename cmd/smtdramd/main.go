// Command smtdramd serves the simulator over HTTP: submissions land on a
// bounded job queue, run on a worker pool, and are answered from a
// fingerprint-keyed result cache when the configuration was seen before. The
// results it serves are byte-identical to `smtdram -json` with the same
// knobs.
//
// Examples:
//
//	smtdramd                                  # serve on 127.0.0.1:8321
//	smtdramd -addr :9000 -queue 128 -workers 8
//	smtdramd -data-dir /var/lib/smtdram       # durable: results, warmup checkpoints and the job journal survive kill -9
//	smtdramd -data-dir d -fsync always        # also survive OS crash / power loss
//
// Fleet mode (DESIGN §16) shards the API across worker daemons by
// configuration fingerprint over a consistent-hash ring:
//
//	smtdramd -node-id w1 -data-dir d1                                   # worker
//	smtdramd -coordinator -workers http://127.0.0.1:8321,http://127.0.0.1:8322
//
// On SIGTERM or SIGINT the daemon stops admitting work (new submissions get
// 503), waits up to -drain-timeout for in-flight jobs, and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smtdram/internal/fleet"
	"smtdram/internal/server"
	"smtdram/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address")
		queue    = flag.Int("queue", 64, "admission queue depth (queued + running jobs); beyond it submissions get 429")
		workers  = flag.String("workers", "", "concurrent simulations (integer; default GOMAXPROCS) — or, with -coordinator, the comma-separated worker base URLs")
		cacheN   = flag.Int("cache", 256, "result cache entries (negative disables caching)")
		progress = flag.Uint64("progress-interval", 10_000, "simulated cycles between streamed progress samples")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown before cancelling them")
		quiet    = flag.Bool("quiet", false, "suppress per-job log lines (warnings and errors still print)")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")

		dataDir  = flag.String("data-dir", "", "directory for the content-addressed store of results and warmup checkpoints, and the write-ahead job journal (empty: memory-only)")
		fsyncStr = flag.String("fsync", "off", `journal/store fsync policy: "off" (survives kill -9) or "always" (also survives OS crash)`)

		nodeID      = flag.String("node-id", "", "this daemon's fleet node id ([A-Za-z0-9_]+; job ids become j-<node>-<n> and /v1/stats names the node)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant admission tokens per second (0 disables tenant quotas)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant bucket capacity (default 2×rate, min 1)")

		coordinator = flag.Bool("coordinator", false, "serve as a fleet coordinator: shard /v1/sim and /v1/figures across -workers by fingerprint")
		probeIntv   = flag.Duration("probe-interval", 500*time.Millisecond, "coordinator health-probe period")
		failAfter   = flag.Int("fail-after", 3, "consecutive failed probes before a worker is ejected from the ring")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "smtdramd: unexpected argument %q (all options are flags)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	fsync, err := store.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtdramd:", err)
		flag.Usage()
		os.Exit(2)
	}

	// -workers is the sim concurrency (integer) for a daemon, or the worker
	// URL list for -coordinator.
	simWorkers := runtime.GOMAXPROCS(0)
	var workerURLs []string
	if *coordinator {
		workerURLs = splitNonEmpty(*workers)
		if len(workerURLs) == 0 {
			fmt.Fprintln(os.Stderr, "smtdramd: -coordinator needs -workers url1,url2,...")
			os.Exit(2)
		}
	} else if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "smtdramd: -workers %q: want a positive integer (or a URL list with -coordinator)\n", *workers)
			os.Exit(2)
		}
		simWorkers = n
	}
	if *nodeID != "" {
		if err := server.ValidNodeID(*nodeID); err != nil {
			fmt.Fprintln(os.Stderr, "smtdramd: -node-id:", err)
			os.Exit(2)
		}
	}

	// Structured logging: every lifecycle line carries job/flight correlation
	// keys, so `grep job=j-17` (or a jq filter with -log-json) reconstructs
	// one job's life from the interleaved stream.
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	cfg := server.Config{
		QueueDepth:       *queue,
		Workers:          simWorkers,
		CacheEntries:     *cacheN,
		ProgressInterval: *progress,
		Logger:           logger,
		DataDir:          *dataDir,
		Fsync:            fsync,
		NodeID:           *nodeID,
	}
	var quota *fleet.Quota
	if *tenantRate > 0 {
		quota = fleet.NewQuota(fleet.QuotaConfig{RatePerSec: *tenantRate, Burst: *tenantBurst})
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtdramd:", err)
		os.Exit(1)
	}
	if *coordinator {
		coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
			Workers:       workerURLs,
			ProbeInterval: *probeIntv,
			FailAfter:     *failAfter,
			Quota:         quota,
			Logger:        logger,
		})
		// A coordinator holds no jobs: there is nothing to drain.
		err = serve(ln, coord.Handler(), 5*time.Second, func(context.Context) {},
			"role", "coordinator", "workers", len(workerURLs), "ready", coord.ReadyWorkers())
		coord.Close()
	} else {
		if quota != nil {
			cfg.Admission = quota
		}
		srv := server.New(cfg)
		err = serve(ln, srv.Handler(), *drainT, func(ctx context.Context) {
			if err := srv.Drain(ctx); err != nil {
				slog.Warn("drain timed out; in-flight jobs were cancelled", "err", err)
			} else {
				slog.Info("drained cleanly")
			}
		}, "queue", cfg.QueueDepth, "workers", workersOf(cfg))
		if err != nil {
			srv.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtdramd:", err)
		os.Exit(1)
	}
}

// serve answers h on ln until SIGTERM or SIGINT, then runs drain under a
// timeout context and shuts the HTTP server down within the same deadline.
// A serve error returns at once, without drain. attrs ride on the
// "listening" log line.
func serve(ln net.Listener, h http.Handler, timeout time.Duration, drain func(ctx context.Context), attrs ...any) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	hs := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	slog.Info("listening", append([]any{"addr", "http://" + ln.Addr().String()}, attrs...)...)

	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		slog.Info("draining", "signal", got.String(), "timeout", timeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	drain(ctx)
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
	slog.Info("shutdown complete")
	return nil
}

func workersOf(cfg server.Config) int {
	if cfg.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Workers
}

// splitNonEmpty splits a comma-separated list, dropping empty elements.
func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
