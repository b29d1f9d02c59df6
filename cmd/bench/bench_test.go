package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"smtdram/internal/core"
)

// testSizes runs every code path of the command in seconds instead of
// minutes.
var testSizes = sizes{
	ilpWarmup: 4_000, ilpTarget: 2_000,
	memWarmup: 2_000, memTarget: 4_000,
	sweepWarmup: 1_000, sweepTarget: 1_000,
	serveWarmup: 1_000, serveTarget: 1_000,
	perMix:       2,
	warmRequests: 48,
	setups:       1,
	minReps:      2,
	minCycles:    1,
}

// inTempDir runs the test from a scratch directory, so the bench_out the
// command writes lands there and not in the source tree.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// The twin must simulate exactly what core.Run simulates, whichever clock
// speed core.Run uses and whether or not the shims are in.
func TestTwinMatchesCoreRun(t *testing.T) {
	for _, name := range []string{"ilp8", "mem8", "mem8_rdram_close"} {
		cfg, err := simConfig(name, 7, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, noskip := range []bool{false, true} {
			c := cfg
			c.DisableClockSkip = noskip
			res, err := core.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, acc := range []*spanAcc{nil, newSpanAcc()} {
				tw, err := newTwin(cfg, acc)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := tw.run()
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.matches(res); err != nil {
					t.Errorf("%s noskip=%v traced=%v: %v", name, noskip, acc != nil, err)
				}
				if acc != nil && len(tw.trace) == 0 {
					t.Errorf("%s: traced twin recorded no DRAM requests", name)
				}
			}
		}
	}
}

func TestSpanArithmetic(t *testing.T) {
	// Explicit timestamps, no clock-read correction: a 100 ns tick holding a
	// 30 ns L1->L2 call that holds a 10 ns L2->L3 call.
	a := &spanAcc{}
	a.enterAt(lTick, 0)
	a.enterAt(lL1L2, 20)
	a.enterAt(lL2L3, 30)
	a.exitAt(40)
	a.exitAt(50)
	a.exitAt(100)
	want := map[layer]time.Duration{lTick: 70, lL1L2: 20, lL2L3: 10}
	for l := layer(0); l < nLayers; l++ {
		if a.self[l] != want[l] {
			t.Errorf("%s self = %d, want %d", layerNames[l], a.self[l], want[l])
		}
	}
	if a.total[lTick] != 100 || a.total[lL1L2] != 30 || a.selfSum() != 100 {
		t.Errorf("totals %v, self sum %d", a.total, a.selfSum())
	}
	// With a read cost larger than a span, the span's self time bottoms out
	// at zero and the remainder is booked to the shim, never lost.
	b := &spanAcc{readNs: 15}
	b.enterAt(lTick, 0)
	b.enterAt(lEnqueue, 10)
	b.exitAt(20)
	b.exitAt(100)
	if b.self[lEnqueue] != 0 || b.self[lTick] != 90-30 || b.selfSum() != 100 {
		t.Errorf("corrected self %v shim %d", b.self, b.shim)
	}
}

// On a real traced run every self time is non-negative, no layer's self time
// exceeds its total, and the layers plus the shims' clock reads account for
// the wall within 2%.
func TestSelfTimesSumToWall(t *testing.T) {
	cfg, err := simConfig("mem8", 3, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	acc := newSpanAcc()
	tw, err := newTwin(cfg, acc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tw.run()
	if err != nil {
		t.Fatal(err)
	}
	for l := layer(0); l < nLayers; l++ {
		if acc.self[l] < 0 || acc.self[l] > acc.total[l] {
			t.Errorf("%s: self %v, total %v", layerNames[l], acc.self[l], acc.total[l])
		}
		if acc.calls[l] == 0 {
			t.Errorf("%s: never crossed", layerNames[l])
		}
	}
	if len(acc.stack) != 0 {
		t.Errorf("%d spans left open", len(acc.stack))
	}
	if gap := float64(tr.Wall-acc.selfSum()) / float64(tr.Wall); gap < -0.02 || gap > 0.02 {
		t.Errorf("self times sum to %v, wall %v (%.1f%% apart)", acc.selfSum(), tr.Wall, gap*100)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) for each.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		s := summarize(c.v)
		if got := [3]float64{s.Q1, s.Median, s.Q3}; got != c.want || s.N != len(c.v) {
			t.Errorf("summarize(%v) = %v n=%d, want %v", c.v, got, s.N, c.want)
		}
	}
	if s := summarize([]float64{90, 100, 110, 120}); s.spread() != (s.Q3-s.Q1)/s.Median {
		t.Errorf("spread %v", s.spread())
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{{19, 0}, {20, 500}, {48, 750}, {100, 900}, {200, 950}, {999, 950}, {1000, 990}, {3000, 990}, {10000, 990}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 990); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if p := percentile(sorted, 500); p != 50 {
		t.Errorf("p50 of 1..100 = %v", p)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	note := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the form the benchmark contract allows", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		note(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			note(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for name := range exactCounts {
		if !seen[name] {
			t.Errorf("exact count %q is not a declared metric", name)
		}
	}
	if len(workloadSpecs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("over the contract's caps: %d workloads, %d end-to-end, %d per-layer", len(workloadSpecs), len(endToEnd), len(perLayer))
	}
}

// BENCHMARK.json is what the driver reads; the command must emit exactly the
// names it lists.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"cmd/bench"}) || len(spec.Command) == 0 {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n code %v", spec.Workloads, workloadSpecs)
	}
	same := func(kind string, js []metricJSON, code []metricSpec, bounded bool) {
		if len(js) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(js), len(code))
			return
		}
		for i, m := range js {
			if (metricSpec{m.Name, m.Unit, m.Better}) != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", kind, i, m, code[i])
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s is declared as %+v", m)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// Every workload, in both modes, must run clean at reduced size and report
// exactly the metrics its mode declares.
func TestEveryRunEmitsItsDeclaredMetrics(t *testing.T) {
	inTempDir(t)
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(w.Name, 5, time.Millisecond, traced, testSizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, rec.Failed, rec.Attempted, rec.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, m.Name, got, ok)
				}
			}
			if traced {
				if _, err := os.Stat(rec.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
	left, _ := os.ReadDir(outDir)
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("run left directory %s behind in %s", e.Name(), outDir)
		}
	}
}

func TestBuildPool(t *testing.T) {
	pool, err := buildPool(11, defaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 6*defaultSizes.perMix {
		t.Fatalf("%d jobs, want %d", len(pool), 6*defaultSizes.perMix)
	}
	fps := map[string]bool{}
	perMixOwner := map[string][2]int{}
	for _, j := range pool {
		fps[j.cfg.Fingerprint()] = true
		if j.cfg.Seed != 11 || len(j.cfg.Apps) > 4 {
			t.Errorf("job %s: seed %d, %d threads", j.cfg.Fingerprint(), j.cfg.Seed, len(j.cfg.Apps))
		}
		mix := strings.Join(j.cfg.Apps, "+")
		c := perMixOwner[mix]
		c[j.owner]++
		perMixOwner[mix] = c
	}
	if len(fps) != len(pool) {
		t.Errorf("only %d distinct jobs in a pool of %d", len(fps), len(pool))
	}
	for mix, c := range perMixOwner {
		if c[0]+c[1] != defaultSizes.perMix || c[0] != c[1] {
			t.Errorf("mix %s: %d jobs on w1, %d on w2", mix, c[0], c[1])
		}
	}
	again, _ := buildPool(11, defaultSizes)
	other, _ := buildPool(12, defaultSizes)
	key := func(p []job) (s string) {
		for _, j := range p {
			s += j.cfg.Fingerprint() + "\n"
		}
		return s
	}
	if key(again) != key(pool) {
		t.Error("the same seed built a different pool")
	}
	if key(other) == key(pool) {
		t.Error("a different seed built the same pool")
	}
}

func TestVerdict(t *testing.T) {
	sum := func(v ...float64) metricSummary {
		s := summarize(v)
		return metricSummary{N: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3, Spread: s.spread(), Values: v}
	}
	steady := sum(100, 101, 99, 100, 100.5, 99.5)
	for _, c := range []struct {
		name   string
		a, b   metricSummary
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slower within bound", steady, sum(105, 106, 104, 105, 105, 105), "lower", "ok"},
		{"slower beyond bound", steady, sum(115, 116, 114, 115, 115, 115), "lower", "worse"},
		{"faster", steady, sum(80, 81, 79, 80, 80, 80), "lower", "ok"},
		{"throughput down", steady, sum(85, 86, 84, 85, 85, 85), "higher", "worse"},
		{"throughput up", steady, sum(130, 131, 129, 130, 130, 130), "higher", "ok"},
		{"too noisy to tell", steady, sum(80, 120, 90, 110, 100, 130), "lower", "unresolved"},
		{"noisy but every run better", steady, sum(50, 80, 60, 70, 55, 90), "lower", "ok"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
