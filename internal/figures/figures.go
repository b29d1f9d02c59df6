// Package figures regenerates every table and figure from the paper's
// evaluation (Section 5). A figure is data: Catalog lists them in the paper's
// order, each a name and a Run that returns a Grid — a title, named columns
// and labelled rows of numbers — that renders itself as text, CSV or Markdown.
// Behind Run every figure is one sweep shape: Table 2 mixes × one axis of
// machine variants, submitted up front and waited for in submission order.
// cmd/experiments, the serving daemon and the root benchmark harness are thin
// wrappers around this package.
package figures

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"smtdram/internal/addrmap"
	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/cpu"
	"smtdram/internal/memctrl"
	"smtdram/internal/runner"
	"smtdram/internal/workload"
)

// Options controls the experiment runs.
type Options struct {
	// Warmup and Target are per-thread instruction counts (defaults 100k).
	Warmup, Target uint64
	// Seed drives the generators.
	Seed int64
	// Jobs bounds how many simulations run concurrently (the -jobs flag).
	// 0 and 1 both mean sequential execution, on one worker goroutine in
	// submission order.
	// Figure output is byte-identical for every value: runs are collected in
	// submission order and each simulation is a pure function of its Config.
	Jobs int
	// Out receives one progress line per finished row; nil discards. With
	// Jobs > 1 the lines still appear in deterministic (submission) order.
	Out io.Writer
	// Baselines caches single-thread IPCs across figures. Keyed by a
	// config-derived string; safe to share within a process (the figures
	// guard it internally when Jobs > 1).
	Baselines map[string]float64
	// Configure, when non-nil, is applied to every base machine the figures
	// build (including weighted-speedup baseline runs), before the figure's
	// variant edits it. cmd/experiments uses it to attach the observability
	// layer. Configure itself is only invoked on the calling goroutine, but
	// any hooks it installs on the Config (e.g. Observe) fire on worker
	// goroutines and, when Jobs > 1, must be safe for concurrent use.
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
	// Format is what Figure.Write renders the grid in; the zero value is text.
	Format Format
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

// ---------------------------------------------------------------- catalog

// Figure is one entry of the catalog.
type Figure struct {
	// Name is what -fig and POST /v1/figures call it: "table2", "1" … "10".
	Name string
	// Run regenerates the figure on the paper's rows.
	Run func(Options) (Grid, error)
}

// Write runs the figure and renders its grid to w in o.Format.
func (f Figure) Write(o Options, w io.Writer) error {
	g, err := f.Run(o)
	if err != nil {
		return err
	}
	return g.Render(w, o.Format)
}

// entry is a figure with its rows still a parameter: Catalog binds the
// paper's, the tests drive the same sweep on one or two mixes.
type entry struct {
	name  string
	mixes []workload.Mix
	run   func(Options, []workload.Mix) (Grid, error)
}

func entries() []entry {
	all, mem := workload.Mixes(), memMixes()
	var apps []workload.Mix // Figure 1's rows: every application alone
	for _, app := range workload.Names() {
		apps = append(apps, workload.Mix{Name: app, Apps: []string{app}})
	}
	return []entry{
		{"table2", all, table2},
		{"1", apps, fig1},
		{"2", all, fig2},
		{"3", all, fig3},
		{"4", all, fig4},
		{"5", all, fig5},
		{"6", all, fig6},
		{"7", mem, fig7},
		{"8", mem, fig8},
		{"9", mem, fig9},
		{"10", mem, fig10},
	}
}

// Catalog lists every table and figure this package regenerates, in the
// paper's order. It is the only list of them: front ends iterate it.
func Catalog() []Figure {
	var out []Figure
	for _, e := range entries() {
		out = append(out, Figure{e.name, func(o Options) (Grid, error) { return e.run(o, e.mixes) }})
	}
	return out
}

// ByName looks a figure up; the error for an unknown name lists the valid ones.
func ByName(name string) (Figure, error) {
	var names []string
	for _, f := range Catalog() {
		if f.Name == name {
			return f, nil
		}
		names = append(names, f.Name)
	}
	return Figure{}, fmt.Errorf("figures: unknown figure %q (want one of %s)", name, strings.Join(names, ", "))
}

// Grid is a figure's result, the one shape all of them share.
type Grid struct {
	Title string
	// Columns[0] heads the row labels; the rest name each row's Values.
	Columns []string
	// TextHeader, when set, makes Render print each row as its label and its
	// Text under this header instead of one column per value: Table 2's
	// application lists, and Figure 5, whose rows are as wide as their mix
	// has threads.
	TextHeader string
	Rows       []Row
}

// Row is one labelled row of a Grid.
type Row struct {
	Label  string
	Values []float64
	Text   string
}

// At returns the value in the row labelled row under the column named col.
func (g Grid) At(row, col string) (float64, bool) {
	for _, r := range g.Rows {
		if r.Label != row {
			continue
		}
		for i, c := range g.Columns[1:] {
			if c == col && i < len(r.Values) {
				return r.Values[i], true
			}
		}
	}
	return 0, false
}

// Format names an output format: "text" (the zero value too), "csv" or "md".
// It is a flag.Value, so a front end binds it as its -format flag.
type Format string

// String implements flag.Value.
func (f Format) String() string { return string(f) }

// Set accepts text/txt, csv and md/markdown in any letter case.
func (f *Format) Set(s string) error {
	switch strings.ToLower(s) {
	case "text", "txt":
		*f = "text"
	case "csv":
		*f = "csv"
	case "md", "markdown":
		*f = "md"
	default:
		return fmt.Errorf("unknown format %q (want text, csv, md)", s)
	}
	return nil
}

// Render writes the grid in f: an aligned text table under its title, CSV
// (RFC 4180, no title) or a GitHub-flavored Markdown table under a "###"
// title. A row is its label and then each value at %.3f, or its label and
// its Text under a TextHeader; a row whose values do not fill the columns is
// an error.
func (g Grid) Render(w io.Writer, f Format) error {
	head := g.Columns
	if g.TextHeader != "" {
		head = []string{g.Columns[0], g.TextHeader}
	}
	rows := [][]string{head}
	for i, r := range g.Rows {
		row := []string{r.Label, r.Text}
		if g.TextHeader == "" {
			row = row[:1]
			for _, v := range r.Values {
				row = append(row, num(v))
			}
		}
		if len(row) != len(head) {
			return fmt.Errorf("figures: %q row %d has %d cells, want %d", g.Title, i, len(row), len(head))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	switch f {
	case "csv":
		if err := csv.NewWriter(&b).WriteAll(rows); err != nil {
			return err
		}
	case "md":
		if g.Title != "" {
			fmt.Fprintf(&b, "### %s\n\n", g.Title)
		}
		sep := make([]string, len(head))
		for i := range sep {
			sep[i] = "---"
		}
		for _, r := range slices.Insert(rows, 1, sep) {
			fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
		}
	default:
		if g.Title != "" {
			b.WriteString(g.Title + "\n")
		}
		width := make([]int, len(head))
		for _, r := range rows {
			for i, c := range r {
				width[i] = max(width[i], len(c))
			}
		}
		for _, r := range rows {
			b.WriteString(" ")
			for i, c := range r {
				fmt.Fprintf(&b, " %-*s", width[i], c)
			}
			b.WriteString("\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---------------------------------------------------------------- the sweep

// figRun is the orchestration context for one sweep: the worker pool that
// fans independent simulations out, and the single-flight memo that backs the
// alone-IPC baseline cache. Jobs <= 1 runs every simulation on one worker
// goroutine, in submission order.
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
	r.memo.Tier = &runner.Tier[string, float64]{
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
	}
	return r
}

// baseline returns a wait function for app's single-thread IPC on the paper's
// *reference* machine (the default 2-channel DDR configuration). The memo's
// one tier is Options.Baselines, so values persist across the figures of one
// invocation; within one figure the memo guarantees each baseline simulation
// is submitted at most once, however many mixes share the application.
func (r *figRun) baseline(app string) func() (float64, error) {
	key := fmt.Sprintf("%s|%d|%d|%d", app, r.o.Warmup, r.o.Target, r.o.Seed)
	if v, ok := r.memo.Lookup(r.o.Ctx, key); ok {
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

// simJob is one in-flight point of a sweep: the run plus, when its weighted
// speedup is wanted, the baseline futures for its applications.
type simJob struct {
	run   *runner.Future[core.Result]
	alone []func() (float64, error)
}

// cell is a finished point: the run's result and, for a weighted sweep, its
// weighted speedup (0 otherwise).
type cell struct {
	res core.Result
	ws  float64
}

// submit schedules cfg — through the options' checkpoint cache; a nil cache
// runs plainly and the result bytes are identical either way — and, for a
// weighted sweep, its baselines. Neither the run nor the baselines Wait on
// each other inside pool jobs: all Waits happen in simJob.Wait on the
// submitting goroutine, per the runner deadlock rule.
func (r *figRun) submit(cfg core.Config, weighted bool) simJob {
	j := simJob{run: runner.SubmitNamedCtx(r.pool, r.o.Ctx, cfg.Fingerprint(), func(ctx context.Context) (core.Result, error) {
		return r.o.Checkpoints.Run(ctx, cfg)
	})}
	if weighted {
		for _, app := range cfg.Apps {
			j.alone = append(j.alone, r.baseline(app))
		}
	}
	return j
}

// Wait collects the run and assembles its weighted speedup against
// single-thread baselines measured on the reference machine. Fixing the
// denominator is what makes weighted speedups comparable across machine
// configurations — with per-config baselines, a memory-system improvement
// would inflate the denominator too and cancel itself out of every figure.
func (j simJob) Wait() (cell, error) {
	res, err := j.run.Wait()
	if err != nil || j.alone == nil {
		return cell{res: res}, err
	}
	alone := make([]float64, len(j.alone))
	for i, f := range j.alone {
		if alone[i], err = f(); err != nil {
			return cell{}, err
		}
	}
	ws, err := core.SpeedupSum(res.IPC, alone)
	return cell{res, ws}, err
}

// variant is one point on a figure's axis: its column label and the edit
// that turns the base machine (after Options.Configure) into that point.
type variant struct {
	label string
	apply func(*core.Config)
}

// sweep is the one submit/wait loop behind every figure. It submits every
// (mix, variant) simulation up front and then waits for them in submission
// order, handing each mix's finished cells to row as soon as they are all
// in — so the assembled rows (and the progress lines) are byte-identical to
// a sequential sweep no matter how the workers interleave.
func sweep(o Options, fig string, mixes []workload.Mix, variants []variant, weighted bool, row func(workload.Mix, []cell)) error {
	o = o.withDefaults()
	r := o.newRun()
	var jobs []simJob
	for _, m := range mixes {
		for _, v := range variants {
			cfg := o.baseConfig(m.Apps...)
			v.apply(&cfg)
			jobs = append(jobs, r.submit(cfg, weighted))
		}
	}
	for i, m := range mixes {
		cells := make([]cell, len(variants))
		for k, v := range variants {
			var err error
			if cells[k], err = jobs[i*len(variants)+k].Wait(); err != nil {
				return fmt.Errorf("fig%s %s/%s: %w", fig, m.Name, v.label, err)
			}
		}
		row(m, cells)
	}
	return nil
}

// grid runs a sweep into a Grid: one row per mix, its values computed by val
// from that mix's cells, and one progress line as each row completes. A nil
// columns is the common layout, "mix" and then one column per variant.
func grid(o Options, fig, title string, columns []string, mixes []workload.Mix, variants []variant, weighted bool,
	val func(workload.Mix, []cell) []float64) (Grid, error) {
	o = o.withDefaults()
	if columns == nil {
		columns = []string{"mix"}
		for _, v := range variants {
			columns = append(columns, v.label)
		}
	}
	g := Grid{Title: title, Columns: columns}
	err := sweep(o, fig, mixes, variants, weighted, func(m workload.Mix, cells []cell) {
		r := Row{Label: m.Name, Values: val(m, cells)}
		g.Rows = append(g.Rows, r)
		fmt.Fprintf(o.Out, "  fig%s %-8s%s\n", fig, r.Label, join(r.Values))
	})
	if err != nil {
		return Grid{}, err
	}
	return g, nil
}

// num formats a value the way every table cell and progress line prints it.
func num(v float64) string { return fmt.Sprintf("%.3f", v) }

// join lays a row's values out for a progress line or a Text cell.
func join(vals []float64) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(" " + num(v))
	}
	return b.String()
}

// The value functions of a grid with one column per variant.

func perCell(cells []cell, f func(cell) float64) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = f(c)
	}
	return out
}

func speedup(_ workload.Mix, cells []cell) []float64 {
	return perCell(cells, func(c cell) float64 { return c.ws })
}

// normalized is each weighted speedup over the first variant's.
func normalized(_ workload.Mix, cells []cell) []float64 {
	return perCell(cells, func(c cell) float64 { return c.ws / cells[0].ws })
}

func rowMiss(_ workload.Mix, cells []cell) []float64 {
	return perCell(cells, func(c cell) float64 { return c.res.RowBufferMissRate })
}

// ---------------------------------------------------------------- the figures

func table2(_ Options, mixes []workload.Mix) (Grid, error) {
	g := Grid{Title: "Table 2: workload mixes", Columns: []string{"mix"}, TextHeader: "applications"}
	for _, m := range mixes {
		g.Rows = append(g.Rows, Row{Label: m.Name, Text: fmt.Sprintf("%v", m.Apps)})
	}
	return g, nil
}

// fig1 reproduces the CPI breakdown of all 26 SPEC2000 applications on the
// 2-channel DDR system, via the paper's four-run attribution (each
// application a one-thread "mix", the four perfect-cache machines the axis),
// sorted by CPImem as in the paper.
func fig1(o Options, apps []workload.Mix) (Grid, error) {
	var runs []variant
	for k, label := range []string{"realistic", "perfect-L3", "perfect-L2", "perfect-L1"} {
		runs = append(runs, variant{label, func(c *core.Config) { *c = core.CPIBreakdownConfigs(*c, c.Apps[0])[k] }})
	}
	g, err := grid(o, "1", "Figure 1: CPI breakdown (sorted by CPImem)",
		[]string{"app", "CPIproc", "CPIL2", "CPIL3", "CPImem", "total"}, apps, runs, false,
		func(_ workload.Mix, cells []cell) []float64 {
			cpi := perCell(cells, func(c cell) float64 { return 1 / c.res.IPC[0] })
			b := core.NewBreakdown(cpi[0], cpi[1], cpi[2], cpi[3])
			return []float64{b.Proc, b.L2, b.L3, b.Mem, b.Total()}
		})
	sort.Slice(g.Rows, func(i, j int) bool { return g.Rows[i].Values[3] < g.Rows[j].Values[3] })
	return g, err
}

func fetch(p cpu.FetchPolicy) variant {
	return variant{p.String(), func(c *core.Config) { c.CPU.Policy = p }}
}

// fig2 compares the four fetch policies.
func fig2(o Options, mixes []workload.Mix) (Grid, error) {
	var pols []variant
	for _, p := range cpu.FetchPolicies() {
		pols = append(pols, fetch(p))
	}
	return grid(o, "2", "Figure 2: weighted speedup of fetch policies (2-channel DDR)", nil, mixes, pols, true, speedup)
}

// fig3 measures the performance lost to main memory accesses under ICOUNT
// and DWarn: the percentage retained of a system with an infinitely large L3.
// The product is 100 * (ws/ref) in that order; the other rounds differently.
func fig3(o Options, mixes []workload.Mix) (Grid, error) {
	ref := variant{"infinite-L3", func(c *core.Config) { c.CPU.Policy, c.PerfectL3 = cpu.ICOUNT, true }}
	return grid(o, "3", "Figure 3: performance retained vs infinite L3 (ICOUNT reference)",
		[]string{"mix", "ICOUNT%", "DWarn%"}, mixes, []variant{ref, fetch(cpu.ICOUNT), fetch(cpu.DWarn)}, true,
		func(_ workload.Mix, cells []cell) []float64 {
			return []float64{100 * (cells[1].ws / cells[0].ws), 100 * (cells[2].ws / cells[0].ws)}
		})
}

// baseMachine is the axis of a figure that measures the default machine only.
func baseMachine() []variant { return []variant{{"base", func(*core.Config) {}}} }

// fig4 is the outstanding-request distribution while the DRAM is busy, in
// the paper's buckets: 1, 2-4, 5-8, 9-16, >16 (fractions of busy time).
func fig4(o Options, mixes []workload.Mix) (Grid, error) {
	edges := []int{1, 4, 8, 16}
	buckets := func(hist []uint64) (labels []string, fracs []float64) {
		for _, b := range core.Bucketize(hist, edges) {
			labels, fracs = append(labels, b.Label), append(fracs, b.Frac)
		}
		return labels, fracs
	}
	labels, _ := buckets(nil)
	return grid(o, "4", "Figure 4: outstanding requests while DRAM busy (fraction of busy time)",
		append([]string{"mix"}, labels...), mixes, baseMachine(), false,
		func(_ workload.Mix, cells []cell) []float64 {
			_, fracs := buckets(cells[0].res.OutstandingHist)
			return fracs
		})
}

// fig5 is the number of threads generating concurrent requests: value k of a
// row is the fraction of ≥2-outstanding time during which exactly k threads
// had requests pending, k = 1 … the mix's thread count.
func fig5(o Options, mixes []workload.Mix) (Grid, error) {
	cols := []string{"mix"} // then "1" … "n", n the widest mix's thread count
	for _, m := range mixes {
		for k := len(cols); k <= m.Threads(); k++ {
			cols = append(cols, strconv.Itoa(k))
		}
	}
	g, err := grid(o, "5", "Figure 5: #threads generating concurrent requests (fraction of ≥2-outstanding time)",
		cols, mixes, baseMachine(), false,
		func(m workload.Mix, cells []cell) []float64 {
			hist := cells[0].res.ThreadSpreadHist
			var total uint64
			for _, v := range hist {
				total += v
			}
			spread := make([]float64, m.Threads())
			for k := range spread {
				if total > 0 {
					spread[k] = float64(hist[k+1]) / float64(total)
				}
			}
			return spread
		})
	g.TextHeader = "by #threads (k=1..n)"
	for i, r := range g.Rows {
		g.Rows[i].Text = join(r.Values)
	}
	return g, err
}

// channels is Figure 6's axis: 2, 4 and 8 independent channels.
func channels() []variant {
	var chans []variant
	for _, ch := range []int{2, 4, 8} {
		chans = append(chans, variant{fmt.Sprintf("%dch", ch), func(c *core.Config) { c.Mem.PhysChannels = ch }})
	}
	return chans
}

func fig6(o Options, mixes []workload.Mix) (Grid, error) {
	return grid(o, "6", "Figure 6: weighted speedup vs channel count (normalized to 2 channels)",
		nil, mixes, channels(), true, normalized)
}

// GangOrg names a physical-channel/gang organization, e.g. 8C-4G.
type GangOrg struct{ Phys, Gang int }

func (g GangOrg) String() string { return fmt.Sprintf("%dC-%dG", g.Phys, g.Gang) }

// Fig7Orgs are the organizations the paper compares.
func Fig7Orgs() []GangOrg {
	return []GangOrg{{2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}, {8, 4}}
}

// memMixes are the MEM and MIX workloads: ILP mixes are insensitive to the
// memory system (Figure 6), so the paper omits them from Figures 7–10.
func memMixes() []workload.Mix {
	var out []workload.Mix
	for _, m := range workload.Mixes() {
		if m.Name[2:] != "ILP" {
			out = append(out, m)
		}
	}
	return out
}

// fig7 compares clustering physical channels into logical ones.
func fig7(o Options, mixes []workload.Mix) (Grid, error) {
	var orgs []variant
	for _, org := range Fig7Orgs() {
		orgs = append(orgs, variant{org.String(), func(c *core.Config) { c.Mem.PhysChannels, c.Mem.Gang = org.Phys, org.Gang }})
	}
	return grid(o, "7", "Figure 7: channel organizations (normalized to 2C-1G)", nil, mixes, orgs, true, normalized)
}

// mapping is Figures 8 and 9: row-buffer miss rates under page and XOR
// mapping on the given DRAM kind.
func mapping(o Options, fig, title string, kind core.DRAMKind, mixes []workload.Mix) (Grid, error) {
	var schemes []variant
	for _, s := range []addrmap.Scheme{addrmap.Page, addrmap.XOR} {
		schemes = append(schemes, variant{s.String(), func(c *core.Config) { c.Mem.Kind, c.Mem.Scheme = kind, s }})
	}
	return grid(o, fig, title, nil, mixes, schemes, false, rowMiss)
}

func fig8(o Options, mixes []workload.Mix) (Grid, error) {
	return mapping(o, "8", "Figure 8: row-buffer miss rates, 2-channel DDR", core.DDR, mixes)
}

func fig9(o Options, mixes []workload.Mix) (Grid, error) {
	return mapping(o, "9", "Figure 9: row-buffer miss rates, 2-channel Direct Rambus", core.RDRAM, mixes)
}

// schedulers is Figure 10's axis: the six access-scheduling policies, FCFS
// first.
func schedulers() []variant {
	var pols []variant
	for _, p := range memctrl.Policies() {
		pols = append(pols, variant{p.String(), func(c *core.Config) { c.Mem.Policy = p }})
	}
	return pols
}

func fig10(o Options, mixes []workload.Mix) (Grid, error) {
	return grid(o, "10", "Figure 10: access scheduling policies (weighted speedup, ×FCFS)",
		nil, mixes, schedulers(), true, normalized)
}

// Fig10Cell is one (mix, scheduling policy) weighted speedup, normalized to
// FCFS.
type Fig10Cell struct {
	Mix    string
	Policy memctrl.Policy
	WS     float64
	Norm   float64
}

// Fig10 is Figure 10's sweep as typed cells with the raw weighted speedups
// kept, for harnesses (cmd/bench) that compare whole sweeps.
func Fig10(o Options) ([]Fig10Cell, error) {
	var out []Fig10Cell
	pols := memctrl.Policies()
	err := sweep(o, "10", memMixes(), schedulers(), true, func(m workload.Mix, cells []cell) {
		for k, c := range cells {
			out = append(out, Fig10Cell{Mix: m.Name, Policy: pols[k], WS: c.ws, Norm: c.ws / cells[0].ws})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WS computes one weighted speedup outside a figure sweep, through the
// options' baseline cache, for external harnesses (the root benchmark suite).
func WS(o Options, cfg core.Config) (float64, core.Result, error) {
	o = o.withDefaults()
	cfg.WarmupInstr, cfg.TargetInstr, cfg.Seed = o.Warmup, o.Target, o.Seed
	c, err := o.newRun().submit(cfg, true).Wait()
	return c.ws, c.res, err
}
