package smtdram

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignModuleMap: DESIGN §3 is the repository's one module map. Every
// directory under internal/ and cmd/ that holds Go files has exactly one row
// there, and every path a row names exists.
func TestDesignModuleMap(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	start, end := strings.Index(design, "\n## 3. "), strings.Index(design, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal(`DESIGN.md has no §3 between "## 3. " and "## 4. "`)
	}
	rows := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(design[start:end], -1) {
		rows[m[1]]++
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("DESIGN §3 names %s, which does not exist", m[1])
		}
	}

	pkgs := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no Go directories under internal/ or cmd/")
	}
	for dir := range pkgs {
		if rows[dir] != 1 {
			t.Errorf("DESIGN §3 has %d rows for %s, want 1", rows[dir], dir)
		}
	}
}

// TestDocFlagsExist: every -flag a command line in README.md, EXPERIMENTS.md
// or DESIGN.md passes to one of the repository's commands is one that
// command's -h lists. Command lines are fenced code lines (joined across
// trailing backslashes) and inline code spans; an invocation is
// `go run ./cmd/<name>` or the bare binary name, and its flags run to the end
// of the command (a pipe, redirect, `;` or `&` outside quotes).
func TestDocFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four commands")
	}
	dir := t.TempDir()
	known := map[string]map[string]bool{}
	for _, name := range []string{"smtdram", "experiments", "smtdramd", "calibrate"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		usage, _ := exec.Command(bin, "-h").CombinedOutput()
		flags := map[string]bool{"h": true, "help": true}
		for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(usage), -1) {
			flags[m[1]] = true
		}
		if len(flags) == 2 {
			t.Fatalf("%s -h lists no flags:\n%s", name, usage)
		}
		known[name] = flags
	}

	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		for _, line := range commandLines(readDoc(t, doc)) {
			for _, inv := range invocations(line) {
				for _, flag := range inv.flags {
					checked++
					if !known[inv.cmd][flag] {
						t.Errorf("%s: `%s` passes -%s, which %s -h does not list", doc, line, flag, inv.cmd)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flags found in the docs; the check would pass vacuously")
	}
	t.Logf("%d flag uses checked", checked)
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// commandLines returns a markdown document's fenced code lines, with
// backslash continuations joined and shell comments cut, followed by its
// inline code spans (which may wrap across lines in the source).
func commandLines(doc string) []string {
	var lines []string
	var prose strings.Builder
	fenced := false
	pending := ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + " ")
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		} else if strings.HasPrefix(strings.TrimSpace(line), "#") {
			line = ""
		}
		if strings.HasSuffix(line, `\`) {
			pending += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		lines = append(lines, pending+line)
		pending = ""
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		lines = append(lines, m[1])
	}
	return lines
}

type invocation struct {
	cmd   string
	flags []string
}

var (
	commandName = regexp.MustCompile(`^(?:.*/)?(smtdram|experiments|smtdramd|calibrate)$`)
	flagToken   = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=|$)`)
)

// invocations splits a command line into shell words (quotes kept whole) and
// returns each invocation of a repository command with the flags it passes.
func invocations(line string) []invocation {
	var out []invocation
	var cur *invocation
	for _, w := range shellWords(line) {
		switch {
		case w == "|" || w == ";" || w == "&" || w == ">" || w == "<":
			cur = nil
		case commandName.MatchString(w):
			out = append(out, invocation{cmd: commandName.FindStringSubmatch(w)[1]})
			cur = &out[len(out)-1]
		case cur != nil:
			if m := flagToken.FindStringSubmatch(w); m != nil {
				cur.flags = append(cur.flags, m[1])
			}
		}
	}
	return out
}

// shellWords splits s at unquoted blanks; each unquoted |, ;, &, > or < is a
// word of its own.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	var quote rune
	flush := func() {
		if w.Len() > 0 {
			words = append(words, w.String())
			w.Reset()
		}
	}
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			}
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote = r
			w.WriteRune(r)
		case r == ' ' || r == '\t':
			flush()
		case strings.ContainsRune("|;&><", r):
			flush()
			words = append(words, string(r))
		default:
			w.WriteRune(r)
		}
	}
	flush()
	return words
}
