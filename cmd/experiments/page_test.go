package main_test

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTablesMatchPage: every measured cell of every table under a
// "## Table N" or "## Figure N" heading of EXPERIMENTS.md equals, at the
// precision the doc prints, the same row and column of that table on the
// committed figures page, examples/experiments_output.md (CI regenerates the
// page and cmps it). A column headed "paper…" quotes the paper and is
// skipped; a column headed "A/B" is the ratio of the page's columns A and B.
// A cell may carry ** (bold), a trailing % or a trailing ×.
func TestExperimentsTablesMatchPage(t *testing.T) {
	page := pageTables(t, readFile(t, "../../examples/experiments_output.md"))
	doc := readFile(t, "../../EXPERIMENTS.md")

	checked := 0
	sections := regexp.MustCompile(`(?m)^## ((?:Table|Figure) \d+)\b`)
	for _, loc := range sections.FindAllStringSubmatchIndex(doc, -1) {
		name := doc[loc[2]:loc[3]]
		end := len(doc)
		if next := strings.Index(doc[loc[1]:], "\n## "); next >= 0 {
			end = loc[1] + next
		}
		for _, tab := range mdTables(doc[loc[1]:end]) {
			want, ok := page[name]
			if !ok {
				t.Errorf("%s: EXPERIMENTS.md has a table, the page has no %s", name, name)
				continue
			}
			for _, row := range tab.rows {
				label := strings.Trim(row[0], "*")
				if allBlank(row[1:]) {
					continue // an elision row ("…")
				}
				got, ok := want.rows[label]
				if !ok {
					t.Errorf("%s: row %q is not on the page", name, label)
					continue
				}
				for c := 1; c < len(tab.header); c++ {
					col := tab.header[c]
					if strings.HasPrefix(col, "paper") {
						continue
					}
					cell := strings.TrimRight(strings.Trim(row[c], "*"), "%×")
					v, err := want.value(got, col)
					if err != nil {
						t.Errorf("%s row %s: %v", name, label, err)
						continue
					}
					decimals := 0
					if dot := strings.IndexByte(cell, '.'); dot >= 0 {
						decimals = len(cell) - dot - 1
					}
					checked++
					if s := strconv.FormatFloat(v, 'f', decimals, 64); s != cell {
						t.Errorf("%s row %s column %s: EXPERIMENTS.md says %s, the page %s", name, label, col, row[c], s)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no table cells checked; the test would pass vacuously")
	}
	t.Logf("%d cells checked", checked)
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type mdTable struct {
	header []string
	rows   [][]string
}

// mdTables returns the pipe tables of a markdown fragment, cells trimmed; a
// row with fewer cells than the header is padded with blanks.
func mdTables(s string) []mdTable {
	var out []mdTable
	var cur *mdTable
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "|") {
			cur = nil
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cur == nil:
			out = append(out, mdTable{header: cells})
			cur = &out[len(out)-1]
		case strings.Trim(cells[0], "-: ") == "":
			// the separator row
		default:
			for len(cells) < len(cur.header) {
				cells = append(cells, "")
			}
			cur.rows = append(cur.rows, cells)
		}
	}
	return out
}

type pageTable struct {
	cols map[string]int
	rows map[string][]string
}

// value reads column col of a page row, or the ratio of two columns for a
// header "A/B".
func (p pageTable) value(row []string, col string) (float64, error) {
	if a, b, ok := strings.Cut(col, "/"); ok {
		x, err := p.value(row, a)
		if err != nil {
			return 0, err
		}
		y, err := p.value(row, b)
		return x / y, err
	}
	c, ok := p.cols[col]
	if !ok {
		return 0, fmt.Errorf("column %q is not on the page", col)
	}
	return strconv.ParseFloat(row[c], 64)
}

// pageTables indexes the page's "### Table N: …" / "### Figure N: …" tables
// by "Table N" / "Figure N", each by column header and row label.
func pageTables(t *testing.T, page string) map[string]pageTable {
	t.Helper()
	out := map[string]pageTable{}
	heading := regexp.MustCompile(`(?m)^### ((?:Table|Figure) \d+):`)
	locs := heading.FindAllStringSubmatchIndex(page, -1)
	for i, loc := range locs {
		end := len(page)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		tabs := mdTables(page[loc[1]:end])
		if len(tabs) != 1 {
			t.Fatalf("page section %s holds %d tables, want 1", page[loc[2]:loc[3]], len(tabs))
		}
		p := pageTable{cols: map[string]int{}, rows: map[string][]string{}}
		for c, h := range tabs[0].header {
			p.cols[h] = c
		}
		for _, r := range tabs[0].rows {
			p.rows[r[0]] = r
		}
		out[page[loc[2]:loc[3]]] = p
	}
	if len(out) == 0 {
		t.Fatal("the page has no tables")
	}
	return out
}

func allBlank(cells []string) bool {
	for _, c := range cells {
		if c != "" {
			return false
		}
	}
	return true
}
