package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smtdram/internal/checkpoint"
	"smtdram/internal/core"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// tinyOpts keeps figure tests fast; shapes are asserted loosely.
func tinyOpts() Options {
	return Options{Warmup: 20_000, Target: 20_000, Seed: 42, Baselines: map[string]float64{}}
}

// entryNamed is the catalog entry with its rows still a parameter.
func entryNamed(t *testing.T, name string) entry {
	t.Helper()
	for _, e := range entries() {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no catalog entry %q", name)
	return entry{}
}

func mixesNamed(t *testing.T, names ...string) []workload.Mix {
	t.Helper()
	var out []workload.Mix
	for _, n := range names {
		m, err := workload.MixByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestCatalog holds the catalog's own contract: the paper's order, one shape
// for every result, and one "unknown figure" error that says what is valid.
func TestCatalog(t *testing.T) {
	want := []string{"table2", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	var got []string
	for _, f := range Catalog() {
		got = append(got, f.Name)
		if byName, err := ByName(f.Name); err != nil || byName.Name != f.Name {
			t.Errorf("ByName(%q) = %q, %v", f.Name, byName.Name, err)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("catalog order %v, want the paper's %v", got, want)
	}
	_, err := ByName("11")
	for _, name := range want {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("ByName(\"11\") = %v; the error must list %q", err, name)
		}
	}

	// Every figure, on its first and last row only: the grid is rectangular
	// (or Text-rowed) and At finds every cell under its row and column names.
	o := Options{Warmup: 1_000, Target: 1_000, Seed: 42, Jobs: 2, Baselines: map[string]float64{}}
	for _, e := range entries() {
		rows := []workload.Mix{e.mixes[0], e.mixes[len(e.mixes)-1]}
		g, err := e.run(o, rows)
		if err != nil {
			t.Fatalf("figure %s: %v", e.name, err)
		}
		if g.Title == "" || len(g.Rows) != len(rows) {
			t.Fatalf("figure %s: title %q, %d rows for %d mixes", e.name, g.Title, len(g.Rows), len(rows))
		}
		for _, r := range g.Rows {
			if g.TextHeader != "" {
				if r.Text == "" || len(r.Values) > len(g.Columns)-1 {
					t.Errorf("figure %s row %s: text-rowed grid with text %q and %d values under %d columns",
						e.name, r.Label, r.Text, len(r.Values), len(g.Columns)-1)
				}
			} else if len(r.Values) != len(g.Columns)-1 {
				t.Errorf("figure %s row %s: %d values under %d columns", e.name, r.Label, len(r.Values), len(g.Columns)-1)
			}
			for i, v := range r.Values {
				if got, ok := g.At(r.Label, g.Columns[1+i]); !ok || got != v {
					t.Errorf("figure %s: At(%q, %q) = %v, %v; want %v", e.name, r.Label, g.Columns[1+i], got, ok, v)
				}
			}
		}
		if _, ok := g.At("no-such-row", g.Columns[len(g.Columns)-1]); ok {
			t.Errorf("figure %s: At found a row that does not exist", e.name)
		}
	}
}

// TestPrintTable2 and TestGoldenTables hold the rendered bytes: Table 2 and
// two tiny figures — one rectangular, one Text-rowed — in all three formats,
// against files captured from the binary that still had one Print function
// per figure.
func TestPrintTable2(t *testing.T) { golden(t, "table2", "table2") }

func TestGoldenTables(t *testing.T) {
	golden(t, "5", "fig5")
	golden(t, "8", "fig8")
}

func golden(t *testing.T, name, file string) {
	t.Helper()
	fig, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fig.Run(Options{Warmup: 1_000, Target: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []Format{"text", "csv", "md"} {
		want, err := os.ReadFile(filepath.Join("testdata", file+"."+string(ext)))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := g.Render(&got, ext); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("figure %s as %s:\n%s\nwant:\n%s", name, ext, got.String(), want)
		}
	}
}

// TestRender holds what the goldens do not reach: a label CSV must quote, a
// ragged row in every format, Format's flag aliases, and the zero Format.
func TestRender(t *testing.T) {
	ragged := Grid{Columns: []string{"a", "b"}, Rows: []Row{{Label: "only-one"}}}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"csv quotes a label", func() error {
			g := Grid{Columns: []string{"a", "b"}, Rows: []Row{{Label: `comma,and"quote`, Values: []float64{1.25}}}}
			var b bytes.Buffer
			if err := g.Render(&b, "csv"); err != nil {
				return err
			}
			if want := "a,b\n\"comma,and\"\"quote\",1.250\n"; b.String() != want {
				return fmt.Errorf("got %q, want %q", b.String(), want)
			}
			return nil
		}},
		{"ragged row rejected", func() error {
			for _, f := range []Format{"text", "csv", "md"} {
				var b bytes.Buffer
				if err := ragged.Render(&b, f); err == nil || b.Len() != 0 {
					return fmt.Errorf("%s: accepted a ragged row (err %v, %d bytes written)", f, err, b.Len())
				}
			}
			return nil
		}},
		{"Set takes aliases in any case", func() error {
			for in, want := range map[string]Format{"text": "text", "TXT": "text", "csv": "csv", "Csv": "csv", "md": "md", "MarkDown": "md"} {
				var f Format
				if err := f.Set(in); err != nil || f != want {
					return fmt.Errorf("Set(%q) = %q, %v; want %q", in, f, err, want)
				}
			}
			var f Format
			if err := f.Set("yaml"); err == nil {
				return fmt.Errorf("Set accepted yaml as %q", f)
			}
			return nil
		}},
		{"zero Format is text", func() error {
			g := Grid{Title: "T", Columns: []string{"mix", "v"}, Rows: []Row{{Label: "2-MEM", Values: []float64{0.5}}}}
			var zero, text bytes.Buffer
			if err := g.Render(&zero, ""); err != nil {
				return err
			}
			if err := g.Render(&text, "text"); err != nil {
				return err
			}
			if want := "T\n  mix   v    \n  2-MEM 0.500\n"; zero.String() != want || text.String() != want {
				return fmt.Errorf("zero %q, text %q; want %q", zero.String(), text.String(), want)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPaperClaims is the fidelity scorecard (ROADMAP 3(b)) as far as it goes
// today: each row runs the real figure — the catalog entry, on a reduced mix
// list — and checks one sentence of the paper against the grid. A row marked
// deviation asserts what this model does *instead* of the paper's sentence
// and names the cause (EXPERIMENTS.md, "Summary of deviations"); a
// calibration change that fixes the deviation has to flip the row.
func TestPaperClaims(t *testing.T) {
	tiny := tinyOpts()
	// ILP applications need their stream pools warm before the infinite-L3
	// comparison means anything, so Figure 3's ILP rows warm up for longer.
	warm := Options{Warmup: 100_000, Target: 30_000, Seed: 42, Baselines: map[string]float64{}}
	// One warmup cache for the whole table: several figures share a base
	// machine, and the cache changes wall-clock time only.
	tiny.Checkpoints, warm.Checkpoints = checkpoint.New(), checkpoint.New()

	type atFn func(fig, row, col string) float64
	// splitFn is a mix's DRAM read latency, summed over its reads and split
	// by obs.Attribute, from a traced run on the default machine under p.
	type splitFn func(mix string, p memctrl.Policy) obs.LatencySplit
	claims := []struct {
		name      string
		mixes     []string
		o         Options
		deviation string // empty: the paper's sentence holds; else why it does not
		sentence  string
		holds     func(at atFn, split splitFn) bool
	}{
		{"fig3 ILP retains", []string{"2-ILP", "2-MEM"}, warm, "",
			"ILP mixes lose almost nothing to main memory (≈99% of infinite-L3 performance retained)",
			func(at atFn, _ splitFn) bool { return at("3", "2-ILP", "DWarn%") >= 85 }},
		{"fig3 MEM loses", []string{"2-ILP", "2-MEM"}, warm, "",
			"DRAM is a major bottleneck for MEM mixes (2-MEM retains ≈26.6%)",
			func(at atFn, _ splitFn) bool { return at("3", "2-MEM", "DWarn%") <= 70 }},
		{"fig3 MEM loses more than ILP", []string{"2-ILP", "2-MEM"}, warm, "",
			"MEM workloads lose more to DRAM than ILP workloads",
			func(at atFn, _ splitFn) bool { return at("3", "2-MEM", "DWarn%") < at("3", "2-ILP", "DWarn%") }},
		{"fig3 DWarn separation", []string{"8-MIX"}, tiny,
			"deviation 1: the synthetic MIX workloads are more memory-bound than the paper's, so even DWarn retains little",
			"on 8-MIX DWarn retains 93.1% where ICOUNT retains 39.6%; here DWarn retains under twice ICOUNT's share",
			func(at atFn, _ splitFn) bool { return at("3", "8-MIX", "DWarn%") < 2*at("3", "8-MIX", "ICOUNT%") }},

		{"fig4 is a distribution", []string{"4-ILP", "4-MEM"}, tiny, "",
			"the outstanding-request buckets are fractions of busy time",
			func(at atFn, _ splitFn) bool {
				for _, mix := range []string{"4-ILP", "4-MEM"} {
					if at("4", mix, "1")+at("4", mix, "2-4")+at("4", mix, "5-8")+at("4", mix, "9-16")+at("4", mix, ">16") > 1.0001 {
						return false
					}
				}
				return true
			}},
		{"fig4 MEM above ILP", []string{"4-ILP", "4-MEM"}, tiny, "",
			"MEM workloads show more concurrency than ILP workloads at equal thread count",
			func(at atFn, _ splitFn) bool {
				tail := func(mix string) float64 { return at("4", mix, "5-8") + at("4", mix, "9-16") + at("4", mix, ">16") }
				return tail("4-MEM") > tail("4-ILP")
			}},
		{"fig5 MEM spreads over threads", []string{"4-MEM"}, tiny, "",
			"4-MEM's concurrent requests usually involve two or more of its four threads",
			func(at atFn, _ splitFn) bool {
				return at("5", "4-MEM", "2")+at("5", "4-MEM", "3")+at("5", "4-MEM", "4") >= 0.5
			}},

		// 8 channels must clearly beat 2; 4-vs-8 can be noisy at this scale
		// (returns diminish once bandwidth stops being the bottleneck).
		{"fig6 channels help MEM", []string{"4-MEM"}, tiny, "",
			"more channels monotonically help MEM mixes",
			func(at atFn, _ splitFn) bool { return at("6", "4-MEM", "8ch") > 1.05 && at("6", "4-MEM", "4ch") > 1 }},
		{"fig7 ganging loses", []string{"4-MEM"}, tiny, "",
			"independent channels beat ganged ones: 8C-1G outperforms 8C-4G on 4-MEM",
			func(at atFn, _ splitFn) bool { return at("7", "4-MEM", "8C-1G") > at("7", "4-MEM", "8C-4G") }},

		{"fig8 XOR no worse", []string{"4-MEM"}, tiny, "",
			"XOR mapping is never clearly worse than page mapping on DDR",
			func(at atFn, _ splitFn) bool { return at("8", "4-MEM", "xor") <= at("8", "4-MEM", "page")+0.03 }},
		{"fig8 XOR gain on DDR", []string{"4-MEM"}, tiny,
			"deviation 2: uniform-random cold pools lack the regular bank-conflict patterns XOR breaks, and 8 banks leave it nothing to permute over",
			"page → XOR reduces DDR miss rates moderately (2-MIX 40.1% → 33.4%); here the cut on 4-MEM is under 3 points",
			func(at atFn, _ splitFn) bool { return at("8", "4-MEM", "page")-at("8", "4-MEM", "xor") < 0.03 }},
		{"fig9 XOR gains with banks", []string{"4-MEM"}, tiny, "",
			"XOR cuts the miss rate on 4-MEM by more on Direct Rambus (32 banks a chip) than on DDR",
			func(at atFn, _ splitFn) bool {
				return at("9", "4-MEM", "page")-at("9", "4-MEM", "xor") > at("8", "4-MEM", "page")-at("8", "4-MEM", "xor")
			}},

		{"fig10 hit-first beats FCFS", []string{"4-MEM"}, tiny, "",
			"hit-first outperforms FCFS on 4-MEM",
			func(at atFn, _ splitFn) bool { return at("10", "4-MEM", "hit-first") > 1 }},
		{"fig10 request-based beats FCFS", []string{"4-MEM"}, tiny, "",
			"request-based outperforms FCFS on 4-MEM",
			func(at atFn, _ splitFn) bool { return at("10", "4-MEM", "request-based") > 1 }},
		{"fig10 thread-aware gain at 2 threads", []string{"2-MEM"}, tiny,
			"deviation 3: 2-MEM keeps few requests outstanding (0.1% of busy time above 16, the paper 4.2%), so its scheduler seldom has a choice to reorder",
			"request-based gains 29.8% on 2-MEM, far above hit-first; here it stays within 5% of hit-first",
			func(at atFn, _ splitFn) bool {
				return at("10", "2-MEM", "request-based") < 1.05*at("10", "2-MEM", "hit-first")
			}},
		{"fig10 hit-first gain", []string{"4-MEM"}, tiny,
			"deviation 4: FCFS is implemented literally (arrival order + read bypass, head-of-line blocking), weaker than the paper's apparent baseline",
			"hit-first gains at most 3.2% over FCFS; here it alone recovers over 10%",
			func(at atFn, _ splitFn) bool { return at("10", "4-MEM", "hit-first") > 1.10 }},

		// What queueing there is, and why, from the lifecycle trace.
		{"attribution FCFS blocks at the head", nil, tiny, "",
			"FCFS's head-of-line blocking is what the reordering schedulers remove: on 4-MEM an FCFS read waits with its own bank free, a hit-first read never does",
			func(_ atFn, split splitFn) bool {
				return split("4-MEM", memctrl.FCFS).BankFree > 0 && split("4-MEM", memctrl.HitFirst).BankFree == 0
			}},
		{"attribution 2-MEM seldom overtaken", nil, tiny, "",
			"on 2-MEM under hit-first a read is seldom overtaken: under 5% of its queueing is behind a younger request, so there is little order for a thread-aware scheduler to change",
			func(_ atFn, split splitFn) bool {
				s := split("2-MEM", memctrl.HitFirst)
				return s.Overtaken*20 < s.Older+s.Overtaken+s.WindowFull+s.BankFree
			}},
	}

	grids := map[string]Grid{} // figure × mixes × options → its one run
	splits := map[string]obs.LatencySplit{}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			split := func(mix string, p memctrl.Policy) obs.LatencySplit {
				key := fmt.Sprint(mix, p, c.o.Warmup, c.o.Target)
				if s, ok := splits[key]; ok {
					return s
				}
				cfg := c.o.baseConfig(mixesNamed(t, mix)[0].Apps...)
				cfg.Mem.Policy = p
				ob := &obs.Observer{Trace: obs.NewTracer()}
				cfg.Observe = func() *obs.Observer { return ob }
				if _, err := core.Run(cfg); err != nil {
					t.Fatal(err)
				}
				m, err := cfg.Mem.TraceMachine()
				if err != nil {
					t.Fatal(err)
				}
				var s obs.LatencySplit
				for _, r := range obs.Attribute(ob.Trace.Events(), m).Reads {
					s = s.Plus(r.LatencySplit)
				}
				t.Logf("%s %v: queueing older %d, overtaken %d, window full %d, bank free %d cycles",
					mix, p, s.Older, s.Overtaken, s.WindowFull, s.BankFree)
				splits[key] = s
				return s
			}
			at := func(fig, row, col string) float64 {
				key := fmt.Sprint(fig, c.mixes, c.o.Warmup, c.o.Target)
				g, ok := grids[key]
				if !ok {
					var err error
					if g, err = entryNamed(t, fig).run(c.o, mixesNamed(t, c.mixes...)); err != nil {
						t.Fatal(err)
					}
					grids[key] = g
				}
				v, ok := g.At(row, col)
				if !ok {
					t.Fatalf("figure %s has no cell (%s, %s)", fig, row, col)
				}
				return v
			}
			switch holds := c.holds(at, split); {
			case !holds && c.deviation == "":
				t.Errorf("the paper's claim no longer holds: %s", c.sentence)
			case !holds:
				t.Errorf("a pinned deviation moved — if a calibration fixed it, flip this row to a claim.\n  paper vs here: %s\n  cause was: %s", c.sentence, c.deviation)
			}
		})
	}
}

// TestDocsNameTheCatalog: EXPERIMENTS.md has one "## Table 2" / "## Figure N"
// section per catalog entry and DESIGN §4 one "-fig <name>" row, and neither
// names a figure the catalog lacks. (Table 1 is the machine itself —
// `smtdram -dump-config` — not something a sweep regenerates.)
func TestDocsNameTheCatalog(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := map[string]bool{}
	for _, f := range Catalog() {
		want[f.Name] = true
	}
	check := func(doc string, got map[string]bool) {
		for name := range want {
			if !got[name] {
				t.Errorf("%s does not cover catalog figure %q", doc, name)
			}
		}
		for name := range got {
			if !want[name] {
				t.Errorf("%s names figure %q, which the catalog lacks", doc, name)
			}
		}
	}

	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (Table|Figure) (\d+)\b`).FindAllStringSubmatch(read("EXPERIMENTS.md"), -1) {
		if m[1] == "Table" {
			headings["table"+m[2]] = true
		} else {
			headings[m[2]] = true
		}
	}
	delete(headings, "table1")
	check("EXPERIMENTS.md", headings)

	design := read("DESIGN.md")
	start, end := strings.Index(design, "\n## 4. "), strings.Index(design, "\n## 5. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 between \"## 4. \" and \"## 5. \"")
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\|.*`-fig (\\w+)`").FindAllStringSubmatch(design[start:end], -1) {
		rows[m[1]] = true
	}
	check("DESIGN.md §4", rows)
}

func TestBaselineCacheReused(t *testing.T) {
	o := tinyOpts()
	cfg := core.DefaultConfig("gzip", "bzip2")
	if _, _, err := WS(o, cfg); err != nil {
		t.Fatal(err)
	}
	n := len(o.Baselines)
	if n != 2 {
		t.Fatalf("cache has %d entries, want 2", n)
	}
	if _, _, err := WS(o, cfg); err != nil {
		t.Fatal(err)
	}
	if len(o.Baselines) != n {
		t.Fatal("second run should reuse cached baselines")
	}
}

func TestWSHelper(t *testing.T) {
	ws, res, err := WS(tinyOpts(), core.DefaultConfig("gzip", "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0 || res.TotalIPC() <= 0 {
		t.Fatal("WS helper returned empty results")
	}
}

func TestGangOrgString(t *testing.T) {
	if (GangOrg{8, 4}).String() != "8C-4G" {
		t.Fatalf("GangOrg string = %s", GangOrg{8, 4})
	}
	if len(Fig7Orgs()) != 8 {
		t.Fatalf("Fig7Orgs = %d organizations", len(Fig7Orgs()))
	}
}
