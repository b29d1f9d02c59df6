package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"smtdram/internal/server"
)

// This file is the in-process fleet harness: N worker daemons and one
// coordinator on loopback listeners, wired exactly as cmd/smtdramd wires real
// processes (PeerClient into server.Config.PeerFetch, Quota into Admission,
// coordinator probing over HTTP). Tests and the fleet benchmark use it so
// they exercise the same code paths a multi-process deployment runs.

// LocalNode names one worker in a local fleet. Reusing the same ID and
// DataDir across StartLocal calls models a worker restarting into its old
// durable store — the basis of the warm-restart and cache-peering stages.
type LocalNode struct {
	ID      string
	DataDir string
}

// LocalConfig shapes a local fleet.
type LocalConfig struct {
	// Nodes lists the workers. IDs must be unique and '-'-free.
	Nodes []LocalNode
	// Worker is the per-worker daemon config template; NodeID, DataDir, and
	// PeerFetch are overwritten per node. Admission is installed from Quota
	// when set.
	Worker server.Config
	// Quota, when non-zero, gives every worker its own admission gate built
	// from this config (fleet-wide quotas belong on the coordinator).
	Quota QuotaConfig
	// Coordinator carries probe knobs; Workers is filled in with the bound
	// listener URLs.
	Coordinator CoordinatorConfig
	// PeerTimeout bounds one peer-to-peer entry fetch (default 2s).
	PeerTimeout time.Duration
}

// LocalWorker is one running worker daemon.
type LocalWorker struct {
	ID     string
	URL    string
	Server *server.Server

	ln net.Listener
	hs *http.Server
}

// Kill stops the worker abruptly — no drain, in-flight requests severed —
// approximating SIGKILL as closely as one process allows. The coordinator's
// probes notice and eject it.
func (w *LocalWorker) Kill() {
	_ = w.ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	w.Server.Close()
}

// LocalFleet is a running local fleet.
type LocalFleet struct {
	Workers  []*LocalWorker
	Coord    *Coordinator
	CoordURL string

	coordLn net.Listener
	coordHS *http.Server
}

// StartLocal brings up the fleet: every worker listener binds first so each
// PeerClient knows all peer URLs at construction, then the daemons start,
// then the coordinator probes them (synchronously once) and begins serving.
func StartLocal(cfg LocalConfig) (*LocalFleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	lns := make([]net.Listener, 0, len(cfg.Nodes))
	urls := map[string]string{}
	cleanup := func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	for _, n := range cfg.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("fleet: binding worker %s: %w", n.ID, err)
		}
		lns = append(lns, ln)
		urls[n.ID] = "http://" + ln.Addr().String()
	}

	f := &LocalFleet{}
	for i, n := range cfg.Nodes {
		peers := map[string]string{}
		for id, u := range urls {
			if id != n.ID {
				peers[id] = u
			}
		}
		wcfg := cfg.Worker
		wcfg.NodeID = n.ID
		wcfg.DataDir = n.DataDir
		wcfg.PeerTimeout = cfg.PeerTimeout
		wcfg.PeerFetch = NewPeerClient(n.ID, peers, cfg.Coordinator.VNodes, cfg.PeerTimeout, cfg.Worker.Logger)
		if cfg.Quota.RatePerSec > 0 {
			wcfg.Admission = NewQuota(cfg.Quota)
		}
		srv := server.New(wcfg)
		hs := &http.Server{Handler: srv.Handler()}
		w := &LocalWorker{ID: n.ID, URL: urls[n.ID], Server: srv, ln: lns[i], hs: hs}
		go func() { _ = hs.Serve(w.ln) }()
		f.Workers = append(f.Workers, w)
	}

	ccfg := cfg.Coordinator
	for _, w := range f.Workers {
		ccfg.Workers = append(ccfg.Workers, w.URL)
	}
	f.Coord = NewCoordinator(ccfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: binding coordinator: %w", err)
	}
	f.coordLn = ln
	f.CoordURL = "http://" + ln.Addr().String()
	f.coordHS = &http.Server{Handler: f.Coord.Handler()}
	go func() { _ = f.coordHS.Serve(ln) }()
	return f, nil
}

// WaitReady blocks until the coordinator sees at least n ready workers, or
// the deadline passes.
func (f *LocalFleet) WaitReady(n int, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		if f.Coord.ReadyWorkers() >= n {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("fleet: %d/%d workers ready after %v", f.Coord.ReadyWorkers(), n, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close tears the fleet down: coordinator first (stops probing and
// forwarding), then the workers.
func (f *LocalFleet) Close() {
	if f.Coord != nil {
		f.Coord.Close()
	}
	if f.coordHS != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = f.coordHS.Shutdown(ctx)
		cancel()
	}
	if f.coordLn != nil {
		_ = f.coordLn.Close()
	}
	for _, w := range f.Workers {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = w.hs.Shutdown(ctx)
		cancel()
		_ = w.ln.Close()
		w.Server.Close()
	}
}
