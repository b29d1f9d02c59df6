package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"smtdram/internal/obs"
	"smtdram/internal/server"
)

// CoordinatorConfig shapes one coordinator.
type CoordinatorConfig struct {
	// Workers lists the worker daemons' base URLs.
	Workers []string
	// NodeID names the coordinator in its own stats/metrics (default
	// "coordinator").
	NodeID string
	// VNodes is the ring's virtual-node count (default DefaultVNodes); it
	// must match the workers' peering rings.
	VNodes int
	// ProbeInterval is the health-probe period (default 500ms);
	// ProbeTimeout bounds one probe (default max(ProbeInterval, 500ms) —
	// a fast cadence should not mistake a briefly slow worker for a dead
	// one).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter ejects a worker from the ring after this many consecutive
	// failed probes (default 3); one successful probe re-admits it.
	FailAfter int
	// Quota layers fleet-wide tenant admission in front of
	// forwarding (nil admits everything).
	Quota *Quota
	// Logger receives lifecycle logs. Nil discards.
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.NodeID == "" {
		c.NodeID = "coordinator"
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout < 500*time.Millisecond {
			c.ProbeTimeout = 500 * time.Millisecond
		}
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	return c
}

// member is one worker from the coordinator's point of view.
type member struct {
	url   string
	proxy *httputil.ReverseProxy

	// Written by the probe loop (and the initial sync probe) under c.mu.
	id           string // learned from /v1/fleet/self; "" until first contact
	ready        bool   // in the ring
	consecFails  int
	lastErr      string
	lastProbe    time.Time
	ejections    uint64
	readmissions uint64
	forwards     uint64 // submissions routed here
	proxyErrors  uint64
}

// Coordinator shards submissions across a worker fleet by the same
// fingerprint key every other layer uses. It holds no job state of its own:
// results, journals, and job tables live on the workers, and job ids embed
// their node ("j-w2-7") so any job lookup routes statelessly.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	log    *slog.Logger

	mu      sync.Mutex
	members []*member
	byID    map[string]*member
	ring    *Ring // ready members only

	startedAt time.Time
	stop      chan struct{}
	done      chan struct{}

	// Metrics mirror the worker daemons' registry idiom; metricsMu guards
	// renders (counters are atomic).
	metricsMu  sync.Mutex
	reg        *obs.Registry
	mForwards  *obs.Counter
	mErrors    *obs.Counter
	mNoOwner   *obs.Counter
	mRejected  *obs.Counter
	mEjections *obs.Counter
	mReadmits  *obs.Counter
}

// NewCoordinator builds and starts a coordinator: one synchronous probe pass
// (so a fleet whose workers are already up routes immediately), then a
// background probe loop. Close stops the loop.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		client:    &http.Client{Timeout: cfg.ProbeTimeout},
		log:       cfg.Logger,
		byID:      map[string]*member{},
		ring:      NewRing(cfg.VNodes),
		startedAt: time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c.reg = obs.NewRegistry(1)
	c.mForwards = c.reg.Counter("fleet_forwards_total")
	c.mErrors = c.reg.Counter("fleet_forward_errors_total")
	c.mNoOwner = c.reg.Counter("fleet_no_owner_total")
	c.mRejected = c.reg.Counter("fleet_quota_rejected_total")
	c.mEjections = c.reg.Counter("fleet_ejections_total")
	c.mReadmits = c.reg.Counter("fleet_readmissions_total")
	c.reg.Gauge("fleet_workers", func(uint64) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.members))
	})
	c.reg.Gauge("fleet_workers_ready", func(uint64) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.ring.Len())
	})
	c.reg.Gauge("uptime_seconds", func(uint64) float64 { return time.Since(c.startedAt).Seconds() })

	for _, raw := range cfg.Workers {
		m := &member{url: strings.TrimRight(raw, "/")}
		m.proxy = c.proxyFor(m)
		c.members = append(c.members, m)
	}
	c.probeAll()
	go c.probeLoop()
	return c
}

// Close stops the probe loop.
func (c *Coordinator) Close() {
	close(c.stop)
	<-c.done
}

// proxyFor builds the member's reverse proxy. FlushInterval -1 flushes every
// write immediately, which is what keeps forwarded SSE progress streams live
// instead of buffered; response bodies otherwise pass through untouched, so
// coordinator-served result bytes are the worker's bytes.
func (c *Coordinator) proxyFor(m *member) *httputil.ReverseProxy {
	target, err := url.Parse(m.url)
	if err != nil {
		target = &url.URL{Scheme: "http", Host: m.url}
	}
	return &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Host = target.Host
		},
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			c.count(c.mErrors)
			c.mu.Lock()
			m.proxyErrors++
			id := m.id
			c.mu.Unlock()
			c.log.Warn("worker unreachable while forwarding", "worker", id, "url", m.url, "err", err)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintf(w, `{"error":"worker %s unreachable: %v"}`+"\n", id, err)
		},
	}
}

func (c *Coordinator) count(m *obs.Counter) { m.Inc() }

// ------------------------------------------------------------- membership

// probeLoop drives periodic health checks until Close.
func (c *Coordinator) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.probeAll()
		case <-c.stop:
			return
		}
	}
}

// probeAll probes every member once (serially: fleets are small and the
// probe timeout bounds each call).
func (c *Coordinator) probeAll() {
	for _, m := range c.members {
		c.probe(m)
	}
}

// probe asks one worker /v1/fleet/self and folds the verdict into the ring:
// FailAfter consecutive failures eject (rebalancing ~1/N of the keyspace to
// the survivors), one success re-admits. A worker that reports itself
// unready (draining, recovering, degraded) counts as a failed probe — the
// ring holds nodes that can actually take work.
func (c *Coordinator) probe(m *member) {
	self, err := c.fetchSelf(m.url)
	now := time.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	m.lastProbe = now
	ok := err == nil && self.Ready && self.NodeID != ""
	switch {
	case err != nil:
		m.lastErr = err.Error()
	case self.NodeID == "":
		m.lastErr = "worker has no node id (start it with -node-id)"
	case !self.Ready:
		m.lastErr = "not ready: " + strings.Join(self.Reasons, "; ")
	default:
		m.lastErr = ""
	}
	if self.NodeID != "" {
		if prev := c.byID[self.NodeID]; prev != nil && prev != m {
			c.log.Warn("duplicate node id in fleet", "node", self.NodeID, "url", m.url, "other", prev.url)
		}
		m.id = self.NodeID
		c.byID[self.NodeID] = m
	}

	if ok {
		m.consecFails = 0
		if m.id != "" && !c.ring.Has(m.id) {
			c.ring.Add(m.id)
			if m.ejections > 0 || m.readmissions > 0 || m.ready {
				m.readmissions++
				c.count(c.mReadmits)
			}
			c.log.Info("worker joined ring", "node", m.id, "url", m.url, "ready_nodes", c.ring.Len())
		}
		m.ready = true
		return
	}
	m.consecFails++
	if m.ready && m.consecFails >= c.cfg.FailAfter {
		m.ready = false
		if m.id != "" && c.ring.Has(m.id) {
			c.ring.Remove(m.id)
			m.ejections++
			c.count(c.mEjections)
			c.log.Warn("worker ejected from ring", "node", m.id, "url", m.url,
				"after_failures", m.consecFails, "err", m.lastErr, "ready_nodes", c.ring.Len())
		}
	}
}

func (c *Coordinator) fetchSelf(base string) (server.NodeSelf, error) {
	var self server.NodeSelf
	resp, err := c.client.Get(base + "/v1/fleet/self")
	if err != nil {
		return self, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return self, err
	}
	if resp.StatusCode != http.StatusOK {
		return self, fmt.Errorf("probe returned %d", resp.StatusCode)
	}
	return self, json.Unmarshal(b, &self)
}

// ---------------------------------------------------------------- routing

// routeByKey picks the forwarding target for a shard key: the ring owner
// when it exists. nil with ok=false means no worker is ready.
func (c *Coordinator) routeByKey(key string) (*member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	node, ok := c.ring.Owner(key)
	if !ok {
		return nil, false
	}
	m := c.byID[node]
	if m == nil {
		return nil, false
	}
	m.forwards++
	return m, true
}

// NodeOfJobID extracts the node segment of a fleet job id ("j-w2-7" → "w2");
// "" means the id carries no node (a standalone daemon minted it).
func NodeOfJobID(id string) string {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return ""
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return ""
	}
	return rest[:i]
}

// handleSubmit shards one submission: read the body (bounded), derive the
// same shard key the worker will cache and dedup under, and forward to the
// ring owner with the body restored. The worker's response — status, skip
// headers, result bytes — passes through verbatim.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Quota != nil {
		tenant := r.Header.Get("X-Smtdram-Tenant")
		if tenant == "" {
			tenant = "default"
		}
		if ok, retry := c.cfg.Quota.Charge(tenant); !ok {
			c.count(c.mRejected)
			secs := int((retry + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			w.Header().Set("X-Smtdram-Tenant", tenant)
			writeJSONErr(w, http.StatusTooManyRequests, fmt.Sprintf("tenant %q over fleet quota; retry in %ds", tenant, secs))
			return
		}
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	key, err := shardKeyFor(r.URL.Path, body)
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, err.Error())
		return
	}
	m, ok := c.routeByKey(key)
	if !ok {
		c.count(c.mNoOwner)
		w.Header().Set("Retry-After", "1")
		writeJSONErr(w, http.StatusServiceUnavailable, "no ready workers in the fleet")
		return
	}
	c.count(c.mForwards)
	r.Body = io.NopCloser(strings.NewReader(string(body)))
	r.ContentLength = int64(len(body))
	m.proxy.ServeHTTP(w, r)
}

// shardKeyFor computes the routing key for a submission body — the exact
// string the worker will cache, dedup, and journal it under, via the same
// exported ShardKey the handlers use.
func shardKeyFor(path string, body []byte) (string, error) {
	switch {
	case strings.HasSuffix(path, "/v1/sim"):
		var req server.SimRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("bad request body: %v", err)
		}
		return req.ShardKey()
	case strings.HasSuffix(path, "/v1/figures"):
		var req server.FigRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("bad request body: %v", err)
		}
		return req.ShardKey()
	}
	return "", fmt.Errorf("unroutable path %q", path)
}

// handleJob routes any /v1/jobs/{id}... request by the node embedded in the
// job id — polling, result and trace fetches, SSE event streams, and
// cancellation all reach the worker that owns the job, ready or not (an
// ejected-but-alive worker still answers for its jobs; a dead one turns into
// a 502 from the proxy's error handler).
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node := NodeOfJobID(id)
	if node == "" {
		writeJSONErr(w, http.StatusNotFound,
			fmt.Sprintf("job id %q carries no node (fleet job ids look like j-<node>-<n>)", id))
		return
	}
	c.mu.Lock()
	m := c.byID[node]
	c.mu.Unlock()
	if m == nil {
		writeJSONErr(w, http.StatusNotFound, fmt.Sprintf("unknown fleet node %q in job id %q", node, id))
		return
	}
	m.proxy.ServeHTTP(w, r)
}

// ------------------------------------------------------------------ status

// MemberStatus is one worker's row in /v1/fleet.
type MemberStatus struct {
	NodeID       string  `json:"node_id,omitempty"`
	URL          string  `json:"url"`
	Ready        bool    `json:"ready"`
	RingShare    float64 `json:"ring_share"`
	Forwards     uint64  `json:"forwards"`
	ProxyErrors  uint64  `json:"proxy_errors"`
	Ejections    uint64  `json:"ejections"`
	Readmissions uint64  `json:"readmissions"`
	ConsecFails  int     `json:"consecutive_failures,omitempty"`
	LastError    string  `json:"last_error,omitempty"`
	LastProbeAgo float64 `json:"last_probe_seconds_ago"`
}

// FleetStatus is the /v1/fleet payload.
type FleetStatus struct {
	NodeID        string         `json:"node_id"`
	Role          string         `json:"role"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers"`
	ReadyWorkers  int            `json:"ready_workers"`
	VNodes        int            `json:"vnodes"`
	Forwards      uint64         `json:"forwards"`
	ForwardErrors uint64         `json:"forward_errors"`
	NoOwner       uint64         `json:"no_owner_rejections"`
	QuotaRejected uint64         `json:"quota_rejected"`
	Members       []MemberStatus `json:"members"`
	Quota         QuotaStats     `json:"quota"`
}

// Status snapshots the fleet.
func (c *Coordinator) Status() FleetStatus {
	now := time.Now()
	c.mu.Lock()
	shares := c.ring.Shares()
	st := FleetStatus{
		NodeID:        c.cfg.NodeID,
		Role:          "coordinator",
		UptimeSeconds: time.Since(c.startedAt).Seconds(),
		Workers:       len(c.members),
		ReadyWorkers:  c.ring.Len(),
		VNodes:        c.cfg.VNodes,
		Forwards:      c.mForwards.Value(),
		ForwardErrors: c.mErrors.Value(),
		NoOwner:       c.mNoOwner.Value(),
		QuotaRejected: c.mRejected.Value(),
	}
	for _, m := range c.members {
		st.Members = append(st.Members, MemberStatus{
			NodeID:       m.id,
			URL:          m.url,
			Ready:        m.ready,
			RingShare:    shares[m.id],
			Forwards:     m.forwards,
			ProxyErrors:  m.proxyErrors,
			Ejections:    m.ejections,
			Readmissions: m.readmissions,
			ConsecFails:  m.consecFails,
			LastError:    m.lastErr,
			LastProbeAgo: now.Sub(m.lastProbe).Seconds(),
		})
	}
	c.mu.Unlock()
	st.Quota = c.cfg.Quota.Snapshot()
	return st
}

// ReadyWorkers reports how many workers are currently in the ring.
func (c *Coordinator) ReadyWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Len()
}

func writeJSONErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	_, _ = w.Write(append(b, '\n'))
}

// Handler returns the coordinator's HTTP mux: the worker API re-exposed
// fleet-wide, plus fleet status and its own observability endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", c.handleSubmit)
	mux.HandleFunc("POST /v1/figures", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Status())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Status())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		labels := []obs.Label{{Key: "node_id", Val: c.cfg.NodeID}, {Key: "role", Val: "coordinator"}}
		c.metricsMu.Lock()
		defer c.metricsMu.Unlock()
		_ = c.reg.WritePrometheusLabeled(w, "smtdram", uint64(time.Since(c.startedAt)/time.Second), labels)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","uptime_seconds":%.1f}`+"\n", time.Since(c.startedAt).Seconds())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready := c.ReadyWorkers() > 0
		code := http.StatusOK
		if !ready {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"ready":%t,"ready_workers":%d}`+"\n", ready, c.ReadyWorkers())
	})
	mux.HandleFunc("GET /debug/dash", c.handleDash)
	return mux
}
