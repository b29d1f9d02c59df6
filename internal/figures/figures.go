// Package figures regenerates every table and figure from the paper's
// evaluation (Section 5). Each FigN function runs the simulations behind the
// corresponding figure and returns the series; Print helpers render the same
// rows the paper reports. cmd/experiments and the root benchmark harness are
// thin wrappers around this package.
package figures

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"smtdram/internal/addrmap"
	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/memctrl"
	"smtdram/internal/report"
	"smtdram/internal/runner"
	"smtdram/internal/stats"
	"smtdram/internal/workload"
)

// Render is the output format used by the Print helpers (text by default;
// cmd/experiments sets it from -format).
var Render = report.Text

// Options controls the experiment runs.
type Options struct {
	// Warmup and Target are per-thread instruction counts (defaults 100k).
	Warmup, Target uint64
	// Seed drives the generators.
	Seed int64
	// Jobs bounds how many simulations run concurrently (the -jobs flag).
	// 0 and 1 both mean sequential execution on the calling goroutine.
	// Figure output is byte-identical for every value: runs are collected in
	// submission order and each simulation is a pure function of its Config.
	Jobs int
	// Out receives progress and tables; nil discards. With Jobs > 1 the
	// progress lines still appear in deterministic (submission) order.
	Out io.Writer
	// Baselines caches single-thread IPCs across figures. Keyed by a
	// config-derived string; safe to share within a process (the figures
	// guard it internally when Jobs > 1).
	Baselines map[string]float64
	// Configure, when non-nil, is applied to every machine configuration the
	// figures build (including weighted-speedup baseline runs) before it
	// runs. cmd/experiments uses it to attach the observability layer.
	// Configure itself is only invoked on the calling goroutine, but any
	// hooks it installs on the Config (e.g. Observe) fire on worker
	// goroutines when Jobs > 1 and must be safe for concurrent use.
	Configure func(*core.Config)
	// Checkpoints, when non-nil, memoizes warmup across runs: every
	// checkpointable simulation forks from a cached warmup-boundary machine
	// state instead of re-simulating its warmup prefix (DESIGN §15). Results
	// are byte-identical with or without it — the cache only changes
	// wall-clock time. Share one cache across figures (and processes, when it
	// is store-backed) to maximize reuse; nil disables memoization.
	Checkpoints *checkpoint.Cache
	// Ctx, when non-nil, cancels the sweep: simulations still queued on the
	// pool resolve to ctx.Err() without running, and running ones abort at
	// their next watchdog boundary, so a figure stops burning CPU shortly
	// after cancellation instead of finishing every remaining configuration.
	// The serving daemon threads its per-job context through here; nil means
	// run to completion.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 100_000
	}
	if o.Target == 0 {
		o.Target = 100_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Baselines == nil {
		o.Baselines = map[string]float64{}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// baseConfig is the paper's default machine for a mix under these options.
func (o Options) baseConfig(apps ...string) core.Config {
	cfg := core.DefaultConfig(apps...)
	cfg.WarmupInstr = o.Warmup
	cfg.TargetInstr = o.Target
	cfg.Seed = o.Seed
	if o.Configure != nil {
		o.Configure(&cfg)
	}
	return cfg
}

// figRun is the orchestration context for one figure: the worker pool that
// fans independent simulations out, and the single-flight memo that backs the
// alone-IPC baseline cache. Every figure submits all of its runs up front and
// then Waits for them in submission order, so the assembled rows (and the
// progress lines) are byte-identical to a sequential sweep no matter how the
// workers interleave. Jobs <= 1 degenerates to lazy inline execution, which
// reproduces the pre-pool compute/print interleaving exactly.
type figRun struct {
	o    Options
	pool *runner.Pool
	memo runner.Memo[string, float64]
	mu   sync.Mutex // guards o.Baselines
}

func (o Options) newRun() *figRun {
	jobs := o.Jobs
	if jobs < 1 {
		jobs = 1
	}
	r := &figRun{o: o, pool: runner.New(jobs)}
	r.memo.Tiers = []*runner.Tier[string, float64]{{
		Get: func(_ context.Context, key string) (float64, error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if v, ok := r.o.Baselines[key]; ok {
				return v, nil
			}
			return 0, runner.ErrMiss
		},
		Put: func(key string, v float64) {
			r.mu.Lock()
			r.o.Baselines[key] = v
			r.mu.Unlock()
		},
	}}
	return r
}

// submitRun schedules one simulation on the pool under the run's context.
// Runs route through the options' checkpoint cache (a nil cache runs plainly;
// either way the result bytes are identical).
func (r *figRun) submitRun(cfg core.Config) *runner.Future[core.Result] {
	return runner.SubmitNamedCtx(r.pool, r.o.Ctx, cfg.Fingerprint(), func(ctx context.Context) (core.Result, error) {
		return r.o.Checkpoints.Run(ctx, cfg)
	})
}

// baseline returns a wait function for app's single-thread IPC on the paper's
// *reference* machine (the default 2-channel DDR configuration). The memo's
// one tier is Options.Baselines, so values persist across the figures of one
// invocation; within one figure the memo guarantees each baseline simulation
// is submitted at most once, however many mixes share the application.
func (r *figRun) baseline(app string) func() (float64, error) {
	key := fmt.Sprintf("%s|%d|%d|%d", app, r.o.Warmup, r.o.Target, r.o.Seed)
	if v, _, ok := r.memo.Lookup(r.o.Ctx, key, -1); ok {
		return func() (float64, error) { return v, nil }
	}
	ref := r.o.baseConfig(app) // the reference machine, always
	ref.Apps = []string{app}   // what RunAlone would simulate, checkpoint-aware
	f, _ := r.memo.Join(r.o.Ctx, r.pool, key, func(ctx context.Context) (float64, error) {
		res, err := r.o.Checkpoints.Run(ctx, ref)
		if err != nil {
			return 0, err
		}
		return res.IPC[0], nil
	})
	return func() (float64, error) { return f.Wait(r.o.Ctx) }
}

// wsJob is one in-flight weighted-speedup computation: the mix run plus the
// baseline futures for its applications.
type wsJob struct {
	run   *runner.Future[core.Result]
	alone []func() (float64, error)
}

// submitWS schedules cfg and its baselines on the pool. Neither the run nor
// the baselines Wait on each other inside pool jobs — all Waits happen in
// wsJob.Wait on the submitting goroutine, per the runner deadlock rule.
func (r *figRun) submitWS(cfg core.Config) wsJob {
	j := wsJob{
		run: r.submitRun(cfg),
	}
	for _, app := range cfg.Apps {
		j.alone = append(j.alone, r.baseline(app))
	}
	return j
}

// Wait assembles the weighted speedup against single-thread baselines
// measured on the reference machine. Fixing the denominator is what makes
// weighted speedups comparable across machine configurations — with
// per-config baselines, a memory-system improvement would inflate the
// denominator too and cancel itself out of every figure.
func (j wsJob) Wait() (float64, core.Result, error) {
	res, err := j.run.Wait()
	if err != nil {
		return 0, core.Result{}, err
	}
	alone := make([]float64, len(j.alone))
	for i, f := range j.alone {
		v, err := f()
		if err != nil {
			return 0, core.Result{}, err
		}
		alone[i] = v
	}
	ws, err := stats.WeightedSpeedup(res.IPC, alone)
	return ws, res, err
}

// weightedSpeedup is the single-run form of submitWS/Wait, kept for callers
// (and tests) that need one weighted speedup outside a figure sweep.
func (o Options) weightedSpeedup(cfg core.Config) (float64, core.Result, error) {
	return o.withDefaults().newRun().submitWS(cfg).Wait()
}

// ---------------------------------------------------------------- Table 2

// PrintTable2 renders the workload-mix catalog.
func PrintTable2(w io.Writer) {
	t := report.New("Table 2: workload mixes", "mix", "applications")
	for _, m := range workload.Mixes() {
		t.AddRow(m.Name, fmt.Sprintf("%v", m.Apps))
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 1

// Fig1Row is one application's CPI breakdown.
type Fig1Row struct {
	App string
	stats.Breakdown
}

// Fig1 reproduces the CPI breakdown of all 26 SPEC2000 applications on the
// 2-channel DDR system, via the paper's four-run attribution. All 4×26 runs
// are independent and fan out on the pool together.
func Fig1(o Options) ([]Fig1Row, error) {
	o = o.withDefaults()
	r := o.newRun()
	apps := workload.Names()
	jobs := make([][4]*runner.Future[float64], len(apps))
	for i, app := range apps {
		for k, cfg := range core.CPIBreakdownConfigs(o.baseConfig(app), app) {
			jobs[i][k] = runner.SubmitNamedCtx(r.pool, o.Ctx, cfg.Fingerprint(), func(ctx context.Context) (float64, error) {
				res, err := o.Checkpoints.Run(ctx, cfg)
				if err != nil {
					return 0, err
				}
				return 1 / res.IPC[0], nil
			})
		}
	}
	var rows []Fig1Row
	for i, app := range apps {
		var cpi [4]float64
		for k, f := range jobs[i] {
			v, err := f.Wait()
			if err != nil {
				return nil, fmt.Errorf("fig1 %s: %w", app, err)
			}
			cpi[k] = v
		}
		b := stats.NewBreakdown(cpi[0], cpi[1], cpi[2], cpi[3])
		rows = append(rows, Fig1Row{App: app, Breakdown: b})
		fmt.Fprintf(o.Out, "  fig1 %-9s done\n", app)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Mem < rows[j].Mem })
	return rows, nil
}

// PrintFig1 renders the breakdown sorted by CPImem, as in the paper.
func PrintFig1(w io.Writer, rows []Fig1Row) {
	t := report.New("Figure 1: CPI breakdown (sorted by CPImem)",
		"app", "CPIproc", "CPIL2", "CPIL3", "CPImem", "total")
	for _, r := range rows {
		t.AddRow(r.App, r.Proc, r.L2, r.L3, r.Mem, r.Total())
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 2

// Fig2Cell is one (mix, fetch policy) weighted speedup.
type Fig2Cell struct {
	Mix    string
	Policy cpu.FetchPolicy
	WS     float64
}

// Fig2 compares the four fetch policies on every Table 2 mix.
func Fig2(o Options) ([]Fig2Cell, error) {
	o = o.withDefaults()
	r := o.newRun()
	type job struct {
		mix string
		pol cpu.FetchPolicy
		ws  wsJob
	}
	var jobs []job
	for _, m := range workload.Mixes() {
		for _, pol := range cpu.FetchPolicies() {
			cfg := o.baseConfig(m.Apps...)
			cfg.CPU.Policy = pol
			jobs = append(jobs, job{m.Name, pol, r.submitWS(cfg)})
		}
	}
	var out []Fig2Cell
	for _, j := range jobs {
		ws, _, err := j.ws.Wait()
		if err != nil {
			return nil, fmt.Errorf("fig2 %s/%v: %w", j.mix, j.pol, err)
		}
		out = append(out, Fig2Cell{Mix: j.mix, Policy: j.pol, WS: ws})
		fmt.Fprintf(o.Out, "  fig2 %-6s %-12v WS=%.3f\n", j.mix, j.pol, ws)
	}
	return out, nil
}

// PrintFig2 renders the policy comparison.
func PrintFig2(w io.Writer, cells []Fig2Cell) {
	cols := []string{"mix"}
	for _, p := range cpu.FetchPolicies() {
		cols = append(cols, p.String())
	}
	t := report.New("Figure 2: weighted speedup of fetch policies (2-channel DDR)", cols...)
	byMix := map[string]map[cpu.FetchPolicy]float64{}
	var order []string
	for _, c := range cells {
		if byMix[c.Mix] == nil {
			byMix[c.Mix] = map[cpu.FetchPolicy]float64{}
			order = append(order, c.Mix)
		}
		byMix[c.Mix][c.Policy] = c.WS
	}
	for _, mix := range order {
		row := []interface{}{mix}
		for _, p := range cpu.FetchPolicies() {
			row = append(row, byMix[mix][p])
		}
		t.AddRow(row...)
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 3

// Fig3Row is one mix's performance relative to the infinite-L3 reference.
type Fig3Row struct {
	Mix string
	// RelICOUNT and RelDWarn are the fraction of the infinite-L3 system's
	// weighted speedup retained with the realistic 2-channel DRAM.
	RelICOUNT, RelDWarn float64
}

// Fig3 measures the performance loss due to main memory accesses under
// ICOUNT and DWarn, against a system with an infinitely large L3.
func Fig3(o Options) ([]Fig3Row, error) {
	o = o.withDefaults()
	r := o.newRun()
	pols := []cpu.FetchPolicy{cpu.ICOUNT, cpu.DWarn}
	type job struct {
		mix      string
		ref      wsJob
		policies [2]wsJob
	}
	var jobs []job
	for _, m := range workload.Mixes() {
		ref := o.baseConfig(m.Apps...)
		ref.CPU.Policy = cpu.ICOUNT
		ref.PerfectL3 = true
		j := job{mix: m.Name, ref: r.submitWS(ref)}
		for i, pol := range pols {
			cfg := o.baseConfig(m.Apps...)
			cfg.CPU.Policy = pol
			j.policies[i] = r.submitWS(cfg)
		}
		jobs = append(jobs, j)
	}
	var out []Fig3Row
	for _, j := range jobs {
		refWS, _, err := j.ref.Wait()
		if err != nil {
			return nil, fmt.Errorf("fig3 %s ref: %w", j.mix, err)
		}
		row := Fig3Row{Mix: j.mix}
		for i, pol := range pols {
			ws, _, err := j.policies[i].Wait()
			if err != nil {
				return nil, fmt.Errorf("fig3 %s/%v: %w", j.mix, pol, err)
			}
			if pol == cpu.ICOUNT {
				row.RelICOUNT = ws / refWS
			} else {
				row.RelDWarn = ws / refWS
			}
		}
		out = append(out, row)
		fmt.Fprintf(o.Out, "  fig3 %-6s icount=%.1f%% dwarn=%.1f%%\n",
			j.mix, 100*row.RelICOUNT, 100*row.RelDWarn)
	}
	return out, nil
}

// PrintFig3 renders the relative-performance table.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	t := report.New("Figure 3: performance retained vs infinite L3 (ICOUNT reference)",
		"mix", "ICOUNT%", "DWarn%")
	for _, r := range rows {
		t.AddRow(r.Mix, 100*r.RelICOUNT, 100*r.RelDWarn)
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figures 4 & 5

// ConcurrencyRow holds one mix's concurrency distributions.
type ConcurrencyRow struct {
	Mix string
	// Outstanding buckets: 1, 2-4, 5-8, 9-16, >16 (fractions of busy time).
	Outstanding []stats.Bucket
	// ThreadSpread[k] is the fraction of ≥2-outstanding time during which
	// exactly k+1 threads had requests pending.
	ThreadSpread []float64
}

// Fig4and5 measures the outstanding-request distribution (Figure 4) and the
// number of threads generating concurrent requests (Figure 5).
func Fig4and5(o Options) ([]ConcurrencyRow, error) {
	o = o.withDefaults()
	r := o.newRun()
	mixes := workload.Mixes()
	futs := make([]*runner.Future[core.Result], len(mixes))
	for i, m := range mixes {
		cfg := o.baseConfig(m.Apps...)
		futs[i] = r.submitRun(cfg)
	}
	var out []ConcurrencyRow
	for i, m := range mixes {
		res, err := futs[i].Wait()
		if err != nil {
			return nil, fmt.Errorf("fig4/5 %s: %w", m.Name, err)
		}
		row := ConcurrencyRow{
			Mix:         m.Name,
			Outstanding: stats.Bucketize(res.OutstandingHist, []int{1, 4, 8, 16}),
		}
		var total uint64
		for _, v := range res.ThreadSpreadHist {
			total += v
		}
		for k := 1; k <= m.Threads(); k++ {
			var f float64
			if total > 0 {
				f = float64(res.ThreadSpreadHist[k]) / float64(total)
			}
			row.ThreadSpread = append(row.ThreadSpread, f)
		}
		out = append(out, row)
		fmt.Fprintf(o.Out, "  fig4/5 %-6s done\n", m.Name)
	}
	return out, nil
}

// PrintFig4 renders the outstanding-request distribution.
func PrintFig4(w io.Writer, rows []ConcurrencyRow) {
	if len(rows) == 0 {
		return
	}
	cols := []string{"mix"}
	for _, b := range rows[0].Outstanding {
		cols = append(cols, b.Label)
	}
	t := report.New("Figure 4: outstanding requests while DRAM busy (fraction of busy time)", cols...)
	for _, r := range rows {
		row := []interface{}{r.Mix}
		for _, b := range r.Outstanding {
			row = append(row, b.Frac)
		}
		t.AddRow(row...)
	}
	_ = t.Render(w, Render)
}

// PrintFig5 renders the thread-spread distribution.
func PrintFig5(w io.Writer, rows []ConcurrencyRow) {
	t := report.New("Figure 5: #threads generating concurrent requests (fraction of ≥2-outstanding time)",
		"mix", "by #threads (k=1..n)")
	for _, r := range rows {
		var cells string
		for _, f := range r.ThreadSpread {
			cells += fmt.Sprintf(" %.3f", f)
		}
		t.AddRow(r.Mix, cells)
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one mix's weighted speedup versus channel count, normalized to
// the 2-channel system.
type Fig6Row struct {
	Mix  string
	Norm map[int]float64 // channels → WS / WS(2ch)
}

// Fig6 sweeps 2/4/8 independent channels.
func Fig6(o Options) ([]Fig6Row, error) {
	o = o.withDefaults()
	r := o.newRun()
	channels := []int{2, 4, 8}
	mixes := workload.Mixes()
	jobs := make([][3]wsJob, len(mixes))
	for i, m := range mixes {
		for k, ch := range channels {
			cfg := o.baseConfig(m.Apps...)
			cfg.Mem.PhysChannels = ch
			jobs[i][k] = r.submitWS(cfg)
		}
	}
	var out []Fig6Row
	for i, m := range mixes {
		row := Fig6Row{Mix: m.Name, Norm: map[int]float64{}}
		var base float64
		for k, ch := range channels {
			ws, _, err := jobs[i][k].Wait()
			if err != nil {
				return nil, fmt.Errorf("fig6 %s/%dch: %w", m.Name, ch, err)
			}
			if ch == 2 {
				base = ws
			}
			row.Norm[ch] = ws / base
		}
		out = append(out, row)
		fmt.Fprintf(o.Out, "  fig6 %-6s 4ch=%.3f 8ch=%.3f\n", m.Name, row.Norm[4], row.Norm[8])
	}
	return out, nil
}

// PrintFig6 renders the channel sweep.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	t := report.New("Figure 6: weighted speedup vs channel count (normalized to 2 channels)",
		"mix", "2ch", "4ch", "8ch")
	for _, r := range rows {
		t.AddRow(r.Mix, r.Norm[2], r.Norm[4], r.Norm[8])
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 7

// GangOrg names a physical-channel/gang organization, e.g. 8C-4G.
type GangOrg struct{ Phys, Gang int }

func (g GangOrg) String() string { return fmt.Sprintf("%dC-%dG", g.Phys, g.Gang) }

// Fig7Orgs are the organizations the paper compares.
func Fig7Orgs() []GangOrg {
	return []GangOrg{{2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}, {8, 4}}
}

// Fig7Row is one mix's weighted speedups across channel organizations,
// normalized to 2C-1G.
type Fig7Row struct {
	Mix  string
	Norm map[GangOrg]float64
}

// fig7Mixes: ILP workloads are insensitive (Figure 6), so the paper omits
// them here.
func fig7Mixes() []workload.Mix {
	var out []workload.Mix
	for _, m := range workload.Mixes() {
		if m.Name[2:] != "ILP" {
			out = append(out, m)
		}
	}
	return out
}

// Fig7 compares clustering physical channels into logical ones.
func Fig7(o Options) ([]Fig7Row, error) {
	o = o.withDefaults()
	r := o.newRun()
	orgs := Fig7Orgs()
	mixes := fig7Mixes()
	jobs := make([][]wsJob, len(mixes))
	for i, m := range mixes {
		for _, org := range orgs {
			cfg := o.baseConfig(m.Apps...)
			cfg.Mem.PhysChannels = org.Phys
			cfg.Mem.Gang = org.Gang
			jobs[i] = append(jobs[i], r.submitWS(cfg))
		}
	}
	var out []Fig7Row
	for i, m := range mixes {
		row := Fig7Row{Mix: m.Name, Norm: map[GangOrg]float64{}}
		var base float64
		for k, org := range orgs {
			ws, _, err := jobs[i][k].Wait()
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%v: %w", m.Name, org, err)
			}
			if org == (GangOrg{2, 1}) {
				base = ws
			}
			row.Norm[org] = ws / base
		}
		out = append(out, row)
		fmt.Fprintf(o.Out, "  fig7 %-6s done\n", m.Name)
	}
	return out, nil
}

// PrintFig7 renders the ganging comparison.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	cols := []string{"mix"}
	for _, org := range Fig7Orgs() {
		cols = append(cols, org.String())
	}
	t := report.New("Figure 7: channel organizations (normalized to 2C-1G)", cols...)
	for _, r := range rows {
		row := []interface{}{r.Mix}
		for _, org := range Fig7Orgs() {
			row = append(row, r.Norm[org])
		}
		t.AddRow(row...)
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figures 8 & 9

// MappingRow is one mix's row-buffer miss rates under the two mapping
// schemes.
type MappingRow struct {
	Mix      string
	PageMiss float64
	XORMiss  float64
}

// figMapping runs the page-vs-XOR comparison on the given DRAM kind.
func figMapping(o Options, kind core.DRAMKind) ([]MappingRow, error) {
	o = o.withDefaults()
	r := o.newRun()
	schemes := []addrmap.Scheme{addrmap.Page, addrmap.XOR}
	mixes := fig7Mixes() // MEM and MIX mixes, like the paper
	jobs := make([][2]*runner.Future[core.Result], len(mixes))
	for i, m := range mixes {
		for k, scheme := range schemes {
			cfg := o.baseConfig(m.Apps...)
			cfg.Mem.Kind = kind
			cfg.Mem.Scheme = scheme
			jobs[i][k] = r.submitRun(cfg)
		}
	}
	var out []MappingRow
	for i, m := range mixes {
		row := MappingRow{Mix: m.Name}
		for k, scheme := range schemes {
			res, err := jobs[i][k].Wait()
			if err != nil {
				return nil, fmt.Errorf("fig8/9 %s/%v/%v: %w", m.Name, kind, scheme, err)
			}
			if scheme == addrmap.Page {
				row.PageMiss = res.RowBufferMissRate
			} else {
				row.XORMiss = res.RowBufferMissRate
			}
		}
		out = append(out, row)
		fmt.Fprintf(o.Out, "  fig8/9 %-6s %v page=%.3f xor=%.3f\n", m.Name, kind, row.PageMiss, row.XORMiss)
	}
	return out, nil
}

// Fig8 compares mapping schemes on the 2-channel DDR SDRAM system.
func Fig8(o Options) ([]MappingRow, error) { return figMapping(o, core.DDR) }

// Fig9 compares mapping schemes on the 2-channel Direct Rambus system.
func Fig9(o Options) ([]MappingRow, error) { return figMapping(o, core.RDRAM) }

// PrintMapping renders a Figure 8/9 table.
func PrintMapping(w io.Writer, title string, rows []MappingRow) {
	t := report.New(title, "mix", "page", "xor")
	for _, r := range rows {
		t.AddRow(r.Mix, r.PageMiss, r.XORMiss)
	}
	_ = t.Render(w, Render)
}

// ---------------------------------------------------------------- Figure 10

// Fig10Cell is one (mix, scheduling policy) weighted speedup, normalized to
// FCFS.
type Fig10Cell struct {
	Mix    string
	Policy memctrl.Policy
	WS     float64
	Norm   float64
}

// Fig10 compares the six access-scheduling policies.
func Fig10(o Options) ([]Fig10Cell, error) {
	o = o.withDefaults()
	r := o.newRun()
	pols := memctrl.Policies()
	mixes := fig7Mixes()
	jobs := make([][]wsJob, len(mixes))
	for i, m := range mixes {
		for _, pol := range pols {
			cfg := o.baseConfig(m.Apps...)
			cfg.Mem.Policy = pol
			jobs[i] = append(jobs[i], r.submitWS(cfg))
		}
	}
	var out []Fig10Cell
	for i, m := range mixes {
		var base float64
		for k, pol := range pols {
			ws, _, err := jobs[i][k].Wait()
			if err != nil {
				return nil, fmt.Errorf("fig10 %s/%v: %w", m.Name, pol, err)
			}
			if pol == memctrl.FCFS {
				base = ws
			}
			out = append(out, Fig10Cell{Mix: m.Name, Policy: pol, WS: ws, Norm: ws / base})
			fmt.Fprintf(o.Out, "  fig10 %-6s %-14v WS=%.3f (%.3f× FCFS)\n", m.Name, pol, ws, ws/base)
		}
	}
	return out, nil
}

// PrintFig10 renders the scheduling comparison.
func PrintFig10(w io.Writer, cells []Fig10Cell) {
	cols := []string{"mix"}
	for _, p := range memctrl.Policies() {
		cols = append(cols, p.String())
	}
	t := report.New("Figure 10: access scheduling policies (weighted speedup, ×FCFS)", cols...)
	byMix := map[string]map[memctrl.Policy]float64{}
	var order []string
	for _, c := range cells {
		if byMix[c.Mix] == nil {
			byMix[c.Mix] = map[memctrl.Policy]float64{}
			order = append(order, c.Mix)
		}
		byMix[c.Mix][c.Policy] = c.Norm
	}
	for _, mix := range order {
		row := []interface{}{mix}
		for _, p := range memctrl.Policies() {
			row = append(row, byMix[mix][p])
		}
		t.AddRow(row...)
	}
	_ = t.Render(w, Render)
}

// WS exposes the options' cached weighted-speedup computation for external
// harnesses (the root benchmark suite).
func WS(o Options, cfg core.Config) (float64, core.Result, error) {
	o = o.withDefaults()
	cfg.WarmupInstr, cfg.TargetInstr, cfg.Seed = o.Warmup, o.Target, o.Seed
	return o.weightedSpeedup(cfg)
}
