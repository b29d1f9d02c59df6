package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"smtdram/internal/runner"
)

// outDir receives everything a run writes: worker data directories while a
// fleet is up, and the trace file of a traced run. It sits in the working
// directory (the checkout) and is listed in .gitignore.
const outDir = "bench_out"

// metric is one reported number: the median of N samples taken inside the
// run, with their quartiles so every figure carries its own spread.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// runRecord is one run of one workload, timed or traced.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]metric `json:"metrics"`
	// Cold and Warm are a timed run's passes as they ran, before scaling to
	// the nominal instruction count (see jobSet).
	Cold []pass `json:"cold_passes,omitempty"`
	Warm []pass `json:"warm_passes,omitempty"`
	// Unscaled are the run's medians before any scaling: pass walls as the
	// host's clock read them, instructions executed, host speed factor.
	Unscaled  map[string]float64 `json:"unscaled,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func newRecord(workload string, seed int64, seconds float64, traced bool) *runRecord {
	return &runRecord{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Metrics: map[string]metric{}}
}

func (r *runRecord) mode() string {
	if r.Traced {
		return "traced"
	}
	return "timed"
}

// check counts one operation and, when its output was wrong, one failure.
func (r *runRecord) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// set reports name as the median of samples.
func (r *runRecord) set(name string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = metric{Value: s.Median, Unit: unitOf(name), N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// setValue reports a single reading (a count, a ratio, one wall time).
func (r *runRecord) setValue(name string, v float64) { r.set(name, []float64{v}) }

// finish checks that the run produced every metric its mode owes: all
// end-to-end metrics for a timed run; for a traced run every per-layer
// metric, with 0 for the layers this workload does not exercise.
func (r *runRecord) finish(start time.Time) error {
	r.WallS = time.Since(start).Seconds()
	if r.Traced {
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				r.Metrics[m.Name] = metric{Unit: m.Unit}
			}
		}
		return nil
	}
	for _, m := range endToEnd {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Value <= 0 {
			return fmt.Errorf("bench: %s produced no %s", r.Workload, m.Name)
		}
	}
	return nil
}

// The reference host shares its cores and its memory system. The same work
// takes 10-20% longer for minutes at a time: block medians of one fixed
// simulation, 16 s a block, range over 20%. A median over a 20 s run cannot
// remove a state that outlasts the run, so every timed sample is bracketed by
// two small kernels that use nothing of the program under test — an ALU loop
// and a pointer chase through 4 MiB — and charged at the speed the host showed
// around it. Host times are reported on the reference clock: the clock of a
// host on which the kernels take refAluNs and refChaseNs. Dividing by the
// geometric mean of the two cut the spread of those block medians from 5-13%
// to 2-7% on the reference host; either kernel alone did less on some days.
const (
	aluIters   = 2_000_000
	refAluNs   = 3.8e6 // aluIters on the reference host in its usual state
	chaseNodes = 1 << 20
	chaseSteps = 50_000
	refChaseNs = 2.4e6 // chaseSteps on the reference host in its usual state
)

var (
	calSink   uint64
	chaseOnce sync.Once
	chaseNext []int32 // one cycle through all chaseNodes, in shuffled order
)

func aluKernel() {
	x := uint64(88172645463325252)
	for k := 0; k < aluIters; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calSink += x
}

func chaseKernel() {
	var k int32
	for i := 0; i < chaseSteps; i++ {
		k = chaseNext[k]
	}
	calSink += uint64(k)
}

// fastestOf3 times f: the fastest of three, since interference only ever
// adds time.
func fastestOf3(f func()) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t := time.Now()
		f()
		if d := float64(time.Since(t).Nanoseconds()); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// hostSlowness is how much longer than on the reference clock the host takes
// right now: 1 on the reference host in its usual state.
func hostSlowness() float64 {
	chaseOnce.Do(func() {
		order := rand.New(rand.NewSource(1)).Perm(chaseNodes)
		chaseNext = make([]int32, chaseNodes)
		for i, n := range order {
			chaseNext[n] = int32(order[(i+1)%chaseNodes])
		}
	})
	return math.Sqrt(fastestOf3(aluKernel) / refAluNs * fastestOf3(chaseKernel) / refChaseNs)
}

// stopwatch times one sample between two readings of the host's speed.
type stopwatch struct {
	slow  float64
	start time.Time
}

func startWatch() stopwatch {
	s := hostSlowness()
	return stopwatch{slow: s, start: time.Now()}
}

// stop returns the sample's wall time in seconds, as measured and on the
// reference clock.
func (w stopwatch) stop() (raw, ref float64) {
	raw = time.Since(w.start).Seconds()
	return raw, raw / ((w.slow + hostSlowness()) / 2)
}

// pass is one timed pass over a workload's job set.
type pass struct {
	Wall  float64 `json:"ref_s"`           // seconds on the reference clock
	Raw   float64 `json:"raw_s"`           // seconds as measured
	Work  float64 `json:"instr,omitempty"` // simulated instructions the pass executed
	Alloc float64 `json:"alloc_bytes,omitempty"`
}

// jobSet is the measured outcome of one workload's job set — one simulation,
// the Fig 10 grid, or the served pool — run cold (everything computed) and
// warm (from the tier that memoizes it). The six non-setup end-to-end
// metrics are the same six quantities of any job set, which is what lets
// every workload report all of them.
//
// A simulation ends when its slowest thread reaches the target, so the
// instructions one job executes swing with the seed — by ±30% on the short
// 8-thread runs the time cap allows. The host's speed does not swing with
// it. Walls and bytes are therefore scaled to the set's nominal instruction
// count (threads × (warm-up + target) per job, threads × target when the
// warm-up is forked): a pass that executed 10% more instructions than nominal
// is charged 10% less of its wall, and 10% less of the bytes it allocated
// beyond constructing its machines. A warm pass that simulates nothing (a
// cache hit) has work == nominal == 0 and is taken as measured.
type jobSet struct {
	jobs        int     // simulations in the set
	nominalCold float64 // instructions of a nominal cold pass
	nominalWarm float64 // ... of a nominal warm pass
	// machineBytes is what constructing the set's simulators allocates: the
	// part of a cold pass's bytes that does not grow with the instructions
	// it executes, and so is not scaled.
	machineBytes float64
	cold, warm   []pass
	warmJobMs    []float64 // milliseconds to one result from the warm tier
}

func scaleTo(nominal, work float64) float64 {
	if work == 0 {
		return 1
	}
	return nominal / work
}

func (r *runRecord) setJobSet(js jobSet) {
	n := float64(js.jobs)
	var kips, mb, coldS, rate, warmS, rawCold, rawWarm, work, speed []float64
	for _, p := range js.cold {
		k := scaleTo(js.nominalCold, p.Work)
		kips = append(kips, p.Work/p.Wall/1e3)
		mb = append(mb, (js.machineBytes+(p.Alloc-js.machineBytes)*k)/n/1e6)
		coldS = append(coldS, p.Wall*k)
		rate = append(rate, n/(p.Wall*k))
		rawCold = append(rawCold, p.Raw)
		work = append(work, p.Work)
		speed = append(speed, p.Wall/p.Raw)
	}
	for _, p := range js.warm {
		warmS = append(warmS, p.Wall*scaleTo(js.nominalWarm, p.Work))
		rawWarm = append(rawWarm, p.Raw)
	}
	r.Cold, r.Warm = js.cold, js.warm
	r.Unscaled = map[string]float64{"cold_pass_s": median(rawCold), "warm_pass_s": median(rawWarm),
		"cold_pass_instr": median(work), "nominal_cold_instr": js.nominalCold, "host_speed": median(speed)}
	r.set("sim_kips", kips)
	r.set("alloc_mb_per_sim", mb)
	r.set("sweep_cold_s", coldS)
	r.set("cold_jobs_per_s", rate)
	r.set("sweep_warm_s", warmS)
	r.set("warm_p50_ms", js.warmJobMs)
}

// setupBudget is how long a run goes on repeating its set-up.
const setupBudget = 4 * time.Second

// repeatSetup runs a workload's set-up up to k times, while fewer than
// setupBudget has been spent on it, and reports setup_s as the median wall
// time; the products of the last pass are the ones the timed phase uses.
// Set-up is simulation too (reference runs, a fill sweep), so setup returns
// the instructions it executed and their nominal count, and its wall is
// scaled like a pass's.
func (r *runRecord) repeatSetup(k int, setup func() (work, nominal float64, err error)) error {
	var walls []float64
	start := time.Now()
	for i := 0; i < k && (i == 0 || time.Since(start) < setupBudget); i++ {
		w := startWatch()
		work, nominal, err := setup()
		if err != nil {
			return err
		}
		_, ref := w.stop()
		walls = append(walls, ref*scaleTo(nominal, work))
	}
	r.set("setup_s", walls)
	return nil
}

// phase paces a timed phase: units of work repeat until a minimum count is
// reached and then for as long as another unit still fits the budget.
type phase struct {
	start   time.Time
	budget  time.Duration
	longest time.Duration
	last    time.Time
}

func newPhase(budget time.Duration) *phase {
	now := time.Now()
	return &phase{start: now, budget: budget, last: now}
}

// more reports whether to run another unit, given that done units have run
// and min are owed. Call it once per unit.
func (p *phase) more(done, min int) bool {
	now := time.Now()
	if d := now.Sub(p.last); done > 0 && d > p.longest {
		p.longest = d
	}
	p.last = now
	return done < min || now.Sub(p.start)+p.longest <= p.budget
}

// parallelFor runs fn(0..n-1) on the program's own worker pool, GOMAXPROCS
// at a time, and returns the first error once every call has ended.
func parallelFor(n int, fn func(i int) error) error {
	pool := runner.New(runtime.GOMAXPROCS(0))
	futs := make([]*runner.Future[struct{}], n)
	for i := range futs {
		futs[i] = runner.Submit(pool, func() (struct{}, error) { return struct{}{}, fn(i) })
	}
	var first error
	for _, f := range futs {
		if _, err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// measure runs f after a collection and returns how long it took and the
// bytes it allocated (runtime.MemStats.TotalAlloc delta, all goroutines).
func measure(f func() error) (p pass, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := startWatch()
	err = f()
	p.Raw, p.Wall = w.stop()
	runtime.ReadMemStats(&m1)
	p.Alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	return p, err
}

// hostInfo travels in every output file, so a wall-clock number is never
// read without the machine it was taken on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

func readHost() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     headCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// headCommit resolves .git/HEAD in the working directory without running
// git; a checkout that is not a repository (the driver's) reads "unknown".
// It names the commit only — whether the tree is dirty is not recorded.
func headCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
