package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smtdram/internal/addrmap"
	"smtdram/internal/core"
	"smtdram/internal/dram"
	"smtdram/internal/fleet"
	"smtdram/internal/memctrl"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
	"smtdram/internal/store"
	"smtdram/internal/workload"
)

// serve_fleet: what a client of smtdramd waits for. The fleet is in-process —
// a coordinator and two durable workers with one simulation slot each — and
// the load is two closed-loop clients, so at most two requests are ever in
// flight.

var fleetNodes = []string{"w1", "w2"}

// job is one simulation as the daemon is asked for it, with the answer a
// direct core.Run of the same configuration gives.
type job struct {
	req   server.SimRequest
	cfg   core.Config
	owner int // index into fleetNodes of the ring owner
	ref   []byte
	work  float64 // instructions the direct run committed, warm-up included
}

var ring = fleet.NewRing(0, fleetNodes...)

// newJob phrases cfg as the SimRequest that materializes into it.
func newJob(cfg core.Config) (job, error) {
	warm, target, seed := cfg.WarmupInstr, cfg.TargetInstr, cfg.Seed
	req := server.SimRequest{Apps: cfg.Apps, DRAM: cfg.Mem.Kind.String(), Scheme: cfg.Mem.Scheme.String(),
		PageMode: cfg.Mem.PageMode.String(), Policy: cfg.Mem.Policy.String(),
		Warmup: &warm, Target: &target, Seed: &seed}
	back, err := req.Config()
	if err != nil {
		return job{}, err
	}
	if back.Fingerprint() != cfg.Fingerprint() {
		return job{}, fmt.Errorf("bench: configuration %s cannot be phrased as a SimRequest", cfg.Fingerprint())
	}
	key, err := req.ShardKey()
	if err != nil {
		return job{}, err
	}
	node, _ := ring.Owner(key)
	return job{req: req, cfg: cfg, owner: sort.SearchStrings(fleetNodes, node)}, nil
}

// buildPool generates the request pool from the seed: the six 2- and
// 4-thread Table 2 mixes, perMix jobs of each, drawn from the 24
// policy × mapping × page-mode variants of that mix in seed-shuffled order.
//
// Two properties are fixed so that the cold pass measures the serving path
// and not the draw: every pool has the same number of jobs per mix (a mix's
// thread count sets a job's cost), and — as far as the variants allow — half
// of each mix's jobs hash to each worker, so two closed-loop clients can keep
// both single-slot workers busy. The seed is also every job's Config.Seed.
func buildPool(seed int64, sz sizes) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []job
	for _, mix := range workload.Mixes() {
		if mix.Threads() > 4 {
			continue
		}
		var variants []job
		for _, pol := range memctrl.Policies() {
			for _, scheme := range []addrmap.Scheme{addrmap.XOR, addrmap.Page} {
				for _, mode := range []dram.PageMode{dram.OpenPage, dram.ClosePage} {
					cfg := core.DefaultConfig(mix.Apps...)
					cfg.Seed = seed
					cfg.WarmupInstr, cfg.TargetInstr = sz.serveWarmup, sz.serveTarget
					cfg.Mem.Policy, cfg.Mem.Scheme, cfg.Mem.PageMode = pol, scheme, mode
					j, err := newJob(cfg)
					if err != nil {
						return nil, err
					}
					variants = append(variants, j)
				}
			}
		}
		rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
		// Take an even split per owner first, then whatever is left in order.
		taken := make([]bool, len(variants))
		quota := make([]int, len(fleetNodes))
		n := 0
		for pass := 0; pass < 2 && n < sz.perMix; pass++ {
			for i, v := range variants {
				if n == sz.perMix {
					break
				}
				if taken[i] || (pass == 0 && quota[v.owner] >= sz.perMix/len(fleetNodes)) {
					continue
				}
				taken[i] = true
				quota[v.owner]++
				pool = append(pool, v)
				n++
			}
		}
	}
	return pool, nil
}

// referenceRuns computes every pool job directly, nproc at a time.
func referenceRuns(pool []job) error {
	return parallelFor(len(pool), func(i int) error {
		res, _, work, err := runPlain(pool[i].cfg)
		if err != nil {
			return err
		}
		pool[i].work = work
		pool[i].ref, err = json.Marshal(res)
		return err
	})
}

// benchFleet is a running local fleet on fresh (or reused) data directories.
type benchFleet struct {
	*fleet.LocalFleet
	dirs  []string
	httpc *http.Client
}

func newDataDirs() ([]string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dirs := make([]string, len(fleetNodes))
	for i := range dirs {
		d, err := os.MkdirTemp(outDir, "fleet-"+fleetNodes[i]+"-")
		if err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	return dirs, nil
}

func startFleet(dirs []string) (*benchFleet, error) {
	nodes := make([]fleet.LocalNode, len(fleetNodes))
	for i, id := range fleetNodes {
		nodes[i] = fleet.LocalNode{ID: id, DataDir: dirs[i]}
	}
	f, err := fleet.StartLocal(fleet.LocalConfig{
		Nodes:       nodes,
		Worker:      server.Config{Workers: 1},
		Coordinator: fleet.CoordinatorConfig{ProbeInterval: 50 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	if err := f.WaitReady(len(nodes), 5*time.Second); err != nil {
		f.Close()
		return nil, err
	}
	return &benchFleet{LocalFleet: f, dirs: dirs,
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}, nil
}

// startFreshFleet is a fleet with empty caches: new data directories.
func startFreshFleet() (*benchFleet, error) {
	dirs, err := newDataDirs()
	if err != nil {
		return nil, err
	}
	return startFleet(dirs)
}

// stop shuts the fleet down; removeData also deletes the workers' stores.
func (f *benchFleet) stop(removeData bool) {
	if f == nil {
		return
	}
	f.httpc.CloseIdleConnections()
	f.Close()
	if removeData {
		for _, d := range f.dirs {
			_ = os.RemoveAll(d)
		}
	}
}

func (f *benchFleet) client(url string) *client.Client {
	c := client.New(url)
	c.HTTP = f.httpc
	return c
}

// coldPass submits every pool job once, all of them misses: client i drives
// the jobs worker i owns, each one to completion before its next. Completion
// comes from the job's SSE stream, so no poll interval is in the number.
func (f *benchFleet) coldPass(pool []job, rec *runRecord) error {
	ctx := context.Background()
	ok := make([]bool, len(pool))
	errs := make([]error, len(fleetNodes))
	var wg sync.WaitGroup
	for owner := range fleetNodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.client(f.CoordURL)
			for i := range pool {
				if pool[i].owner != owner {
					continue
				}
				st, err := c.SubmitSim(ctx, pool[i].req)
				if err == nil && !st.State.Terminal() {
					err = c.Events(ctx, st.ID, func(ev client.Event) error {
						if ev.Name == "progress" {
							return nil
						}
						return json.Unmarshal(ev.Data, &st)
					})
				}
				var body json.RawMessage
				if err == nil {
					body, err = c.Result(ctx, st.ID)
				}
				if err != nil {
					errs[owner] = err
					return
				}
				ok[i] = st.State == server.StateDone && !st.Cached && bytes.Equal(body, pool[i].ref)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range pool {
		rec.check(ok[i], "cold job %d (%s): served bytes differ from core.Run, or the job was cached or failed", i, pool[i].cfg.Fingerprint())
	}
	return nil
}

// warmLat is the latencies of one warm pass in milliseconds — POST /v1/sim
// until the result bytes are in hand (a cache hit carries them in the
// response) — as measured and on the reference clock.
type warmLat struct{ raw, ref []float64 }

// warmPass re-submits the pool for the given number of rounds, each round in
// its own seed-shuffled order and shared between the two clients. Rounds run
// in blocks of at least 256 requests, each block between two calibrations.
// It returns every request's latency and every round as a pass.
func (f *benchFleet) warmPass(url string, pool []job, rounds int, rng *rand.Rand, rec *runRecord) (lat warmLat, passes []pass, err error) {
	ctx := context.Background()
	clients := make([]*client.Client, len(fleetNodes))
	for i := range clients {
		clients[i] = f.client(url)
	}
	perBlock := (1024 + len(pool) - 1) / len(pool)
	for r := 0; r < rounds; {
		var blockLat, blockS []float64
		watch := startWatch()
		for end := r + perBlock; r < end && r < rounds; r++ {
			order := rng.Perm(len(pool))
			ms := make([]float64, len(order))
			ok := make([]bool, len(order))
			errs := make([]error, len(clients))
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for w, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := int(next.Add(1)) - 1
						if k >= len(order) {
							return
						}
						job := &pool[order[k]]
						t := time.Now()
						st, err := c.SubmitSim(ctx, job.req)
						ms[k] = time.Since(t).Seconds() * 1e3
						if err != nil {
							errs[w] = err
							return
						}
						ok[k] = st.State == server.StateDone && st.Cached && bytes.Equal(st.Result, job.ref)
					}
				}()
			}
			wg.Wait()
			blockS = append(blockS, time.Since(start).Seconds())
			for _, err := range errs {
				if err != nil {
					return lat, nil, err
				}
			}
			for k := range order {
				rec.check(ok[k], "warm round %d request %d: not a cache hit, or its bytes differ from the cold bytes", r, k)
			}
			blockLat = append(blockLat, ms...)
		}
		raw, ref := watch.stop()
		speed := ref / raw
		for _, ms := range blockLat {
			lat.raw = append(lat.raw, ms)
			lat.ref = append(lat.ref, ms*speed)
		}
		for _, sec := range blockS {
			passes = append(passes, pass{Wall: sec * speed, Raw: sec})
		}
	}
	return lat, passes, nil
}

func poolConfigs(pool []job) []core.Config {
	cfgs := make([]core.Config, len(pool))
	for i, j := range pool {
		cfgs[i] = j.cfg
	}
	return cfgs
}

// poolWork is the pool's simulated work, measured and nominal.
func poolWork(pool []job) (work, nominal float64) {
	for _, j := range pool {
		work += j.work
	}
	return work, nominalInstr(poolConfigs(pool), true)
}

func runServeTimed(seed int64, budget time.Duration, sz sizes, rec *runRecord) error {
	var pool []job
	var f *benchFleet
	defer func() { f.stop(true) }()
	err := rec.repeatSetup(sz.setups, func() (work, nominal float64, err error) {
		f.stop(true)
		f = nil
		if pool, err = buildPool(seed, sz); err != nil {
			return 0, 0, err
		}
		if err = referenceRuns(pool); err != nil {
			return 0, 0, err
		}
		f, err = startFreshFleet()
		work, nominal = poolWork(pool)
		return work, nominal, err
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	rounds := (sz.warmRequests/sz.minCycles + len(pool) - 1) / len(pool)
	work, nominal := poolWork(pool)
	js := jobSet{jobs: len(pool), nominalCold: nominal}
	if js.machineBytes, err = machineBytes(poolConfigs(pool)); err != nil {
		return err
	}
	ph := newPhase(budget)
	for cycle := 0; ph.more(cycle, sz.minCycles); cycle++ {
		if cycle > 0 {
			// A cold pass needs empty caches: a new fleet on new directories.
			f.stop(true)
			if f, err = startFreshFleet(); err != nil {
				return err
			}
		}
		p, err := measure(func() error { return f.coldPass(pool, rec) })
		if err != nil {
			return err
		}
		p.Work = work
		js.cold = append(js.cold, p)

		lat, passes, err := f.warmPass(f.CoordURL, pool, rounds, rng, rec)
		if err != nil {
			return err
		}
		js.warm = append(js.warm, passes...)
		js.warmJobMs = append(js.warmJobMs, lat.ref...)
	}
	rec.setJobSet(js)
	return nil
}

// workerStats sums the counters and count-weights the phase medians of the
// fleet's workers. A worker books a job's phases just after it tells the
// client the job is done, so the read is repeated until all served jobs are
// in.
type workerStats struct {
	hits, misses, peerHits     uint64
	admit, queue, run, respond float64
}

func (f *benchFleet) workerStats(served int) (workerStats, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ws workerStats
		var n float64
		for _, w := range f.Workers {
			st, err := f.client(w.URL).Stats(context.Background())
			if err != nil {
				return ws, err
			}
			ws.hits += st.Cache.Hits
			ws.misses += st.Cache.Misses
			ws.peerHits += st.Peer.Hits
			c := float64(st.Phases.Run.Count)
			n += c
			ws.admit += c * st.Phases.Admission.P50Ms
			ws.queue += c * st.Phases.Queue.P50Ms
			ws.run += c * st.Phases.Run.P50Ms
			ws.respond += c * st.Phases.Respond.P50Ms
		}
		if int(n) < served && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			continue
		}
		if n > 0 {
			ws.admit, ws.queue, ws.run, ws.respond = ws.admit/n, ws.queue/n, ws.run/n, ws.respond/n
		}
		return ws, nil
	}
}

// storeMicro times Store.Put and Store.Get directly with the pool's own
// result payloads, in microseconds.
func storeMicro(pool []job) (putUs, getUs float64, err error) {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.FsyncOff)
	if err != nil {
		return 0, 0, err
	}
	var puts, gets []float64
	for rep := 0; len(puts) < 192; rep++ {
		for i, j := range pool {
			key := fmt.Sprintf("bench|%d|%d", rep, i)
			t := time.Now()
			if err := st.Put(key, j.ref, nil); err != nil {
				return 0, 0, err
			}
			puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			if _, _, err := st.Get(key); err != nil {
				return 0, 0, err
			}
			gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return median(puts), median(gets), nil
}

// serveLayers puts a pool through a fresh fleet the way the serve_fleet
// workload does and reads off what each serving layer cost: pass A (all
// computed), pass B (all LRU hits), the same hits straight to the owning
// worker, the store alone, and pass C (the fleet restarted on the same data
// directories, all store hits). Every job needs its ref. It returns pass A's
// wall time.
func serveLayers(pool []job, sz sizes, rng *rand.Rand, rec *runRecord, tf *traceFile) (time.Duration, error) {
	dirs, err := newDataDirs()
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	f, err := startFleet(dirs)
	if err != nil {
		return 0, err
	}
	defer func() { f.stop(false) }()

	// Pass A: all computed. The phase split is the workers' own.
	t := time.Now()
	if err := f.coldPass(pool, rec); err != nil {
		return 0, err
	}
	passA := time.Since(t)
	afterA, err := f.workerStats(len(pool))
	if err != nil {
		return 0, err
	}
	// Pass B: all LRU hits.
	rounds := (sz.warmRequests + len(pool) - 1) / len(pool)
	warm, _, err := f.warmPass(f.CoordURL, pool, rounds, rng, rec)
	if err != nil {
		return 0, err
	}
	afterB, err := f.workerStats(len(pool))
	if err != nil {
		return 0, err
	}
	lat := warm.raw
	sort.Float64s(lat)
	tail := tailPercentile(len(lat))
	// The same cached jobs through the coordinator and straight to the
	// worker that owns them; the difference is the proxy hop.
	var direct []float64
	for owner, w := range f.Workers {
		var own []job
		for _, j := range pool {
			if j.owner == owner {
				own = append(own, j)
			}
		}
		if len(own) == 0 {
			continue
		}
		d, _, err := f.warmPass(w.URL, own, (sz.warmRequests/4+len(pool)-1)/len(pool), rng, rec)
		if err != nil {
			return 0, err
		}
		direct = append(direct, d.raw...)
	}
	sort.Float64s(direct)
	putUs, getUs, err := storeMicro(pool)
	if err != nil {
		return 0, err
	}

	// Pass C: the fleet stopped and started again on the same directories;
	// the pool once more, now answered from the workers' stores.
	f.stop(false)
	f, err = startFleet(dirs)
	if err != nil {
		return 0, err
	}
	restart, err := f.restartPass(pool, rec)
	if err != nil {
		return 0, err
	}
	afterC, err := f.workerStats(0)
	if err != nil {
		return 0, err
	}

	rec.setValue("server.admission_ms_p50", afterA.admit)
	rec.setValue("server.queue_ms_p50", afterA.queue)
	rec.setValue("server.run_ms_p50", afterA.run)
	rec.setValue("server.respond_ms_p50", afterA.respond)
	if d := float64((afterB.hits - afterA.hits) + (afterB.misses - afterA.misses)); d > 0 {
		rec.setValue("server.cache_hit_ratio", float64(afterB.hits-afterA.hits)/d)
	}
	rec.setValue("server.warm_p99_ms", percentile(lat, tail))
	rec.setValue("store.put_us", putUs)
	rec.setValue("store.get_us", getUs)
	rec.setValue("store.restart_hit_ratio", restart.hitRatio)
	rec.set("store.restart_p50_ms", restart.lat)
	rec.setValue("fleet.proxy_hop_ms", median(lat)-median(direct))
	rec.setValue("fleet.peer_hits", float64(afterB.peerHits+afterC.peerHits))

	sv := &tf.Serve
	sv.Jobs, sv.TailPctile = len(pool), float64(tail)/10
	sv.WarmMs, sv.DirectMs, sv.RestartMs = lat, direct, restart.lat
	sort.Float64s(sv.RestartMs)
	return passA, nil
}

// runServeTraced is the traced run of serve_fleet.
func runServeTraced(seed int64, sz sizes, rec *runRecord) error {
	pool, err := buildPool(seed, sz)
	if err != nil {
		return err
	}
	if err := referenceRuns(pool); err != nil {
		return err
	}
	tf := newTraceFile("serve_fleet", seed)
	passA, err := serveLayers(pool, sz, rand.New(rand.NewSource(seed)), rec, tf)
	if err != nil {
		return err
	}
	serial, err := memoLayers(poolConfigs(pool), rec, tf)
	if err != nil {
		return err
	}
	setEfficiency(rec, serial, passA)
	// The simulator's layers, on the pool's first job.
	probe := pool[0].cfg
	probe.DisableClockSkip = true
	res, _, _, err := runPlain(probe)
	if err != nil {
		return err
	}
	ref, err := json.Marshal(res)
	if err != nil {
		return err
	}
	rec.check(bytes.Equal(ref, pool[0].ref), "probe job: the every-cycle Result differs from the two-speed one")
	if _, err := simLayers(pool[0].cfg, ref, rec, tf); err != nil {
		return err
	}
	return tf.write(rec)
}

type restartResult struct {
	hitRatio float64
	lat      []float64
}

// restartPass submits the pool once to a restarted fleet.
func (f *benchFleet) restartPass(pool []job, rec *runRecord) (restartResult, error) {
	var r restartResult
	c := f.client(f.CoordURL)
	hits := 0
	for i := range pool {
		t := time.Now()
		st, err := c.SubmitSim(context.Background(), pool[i].req)
		r.lat = append(r.lat, time.Since(t).Seconds()*1e3)
		if err != nil {
			return r, err
		}
		if st.Cached {
			hits++
		}
		rec.check(st.State == server.StateDone && st.Cached && bytes.Equal(st.Result, pool[i].ref),
			"restart job %d: not a store hit, or its bytes differ from the cold bytes", i)
	}
	r.hitRatio = float64(hits) / float64(len(pool))
	return r, nil
}
