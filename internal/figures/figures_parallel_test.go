package figures

import (
	"bytes"
	"testing"

	"smtdram/internal/report"
)

// renderSweep runs a representative slice of the catalog (the four-run CPI
// attribution, weighted speedups with shared baselines, and raw-result runs)
// at the given job count, returning the rendered tables and the verbose
// progress stream separately.
func renderSweep(t *testing.T, jobs int) (tables, progress string) {
	t.Helper()
	var tbl, prog bytes.Buffer
	o := Options{Warmup: 1_000, Target: 1_000, Seed: 42, Jobs: jobs,
		Out: &prog, Baselines: map[string]float64{}}
	for _, name := range []string{"1", "2", "8"} {
		fig, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fig.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Table().Render(&tbl, report.Text); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.String(), prog.String()
}

// TestJobsOutputByteIdentical is the determinism contract end to end: the
// parallel scheduler must reproduce the sequential figure output (and even
// the verbose progress lines) byte for byte.
func TestJobsOutputByteIdentical(t *testing.T) {
	seqTables, seqProgress := renderSweep(t, 1)
	parTables, parProgress := renderSweep(t, 8)
	if parTables != seqTables {
		t.Fatalf("-jobs 8 tables differ from -jobs 1:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			seqTables, parTables)
	}
	if parProgress != seqProgress || seqProgress == "" {
		t.Fatalf("-jobs 8 progress differs from -jobs 1 (or is empty):\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			seqProgress, parProgress)
	}
}

// TestParallelFiguresRace exercises the pool, the baseline memo, and the
// shared Baselines map under concurrency; run with -race (CI does) to check
// the synchronization, not just the results.
func TestParallelFiguresRace(t *testing.T) {
	o := Options{Warmup: 1_000, Target: 1_000, Seed: 42, Jobs: 4,
		Baselines: map[string]float64{}}
	fig6, err := ByName("6")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fig6.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 9 {
		t.Fatalf("got %d rows, want 9 mixes", len(g.Rows))
	}
	filled := len(o.Baselines)
	if filled == 0 {
		t.Fatal("parallel sweep left the baseline cache empty")
	}
	// A second sweep over the same mixes must reuse every cached baseline.
	if _, err := fig6.Run(o); err != nil {
		t.Fatal(err)
	}
	if len(o.Baselines) != filled {
		t.Fatalf("second sweep grew the baseline cache %d → %d", filled, len(o.Baselines))
	}
}
