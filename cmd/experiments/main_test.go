package main_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles cmd/experiments for the exit-code tests.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	out, err := exec.Command("go", "build", "-o", bin, "smtdram/cmd/experiments").CombinedOutput()
	if err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	return bin
}

// run returns the invocation's stdout, stderr and exit status.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var xe *exec.ExitError
	switch {
	case errors.As(err, &xe):
		code = xe.ExitCode()
	case err != nil:
		t.Fatalf("%v: %v", args, err)
	}
	return o.String(), e.String(), code
}

// TestBadInvocationExitsTwo: a name the catalog lacks — alone or anywhere in
// the comma list — an unknown format or flag, or a zero warmup or seed (which
// the figures would read as their defaults) is a usage error: exit 2, nothing
// simulated, nothing on stdout, the valid names on stderr. A sweep script
// with a typo must not get an empty (or silently shorter) file and a green
// exit.
func TestBadInvocationExitsTwo(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-fig", "11"},
		{"-fig", "6,bogus"},
		{"-format", "bogus", "-fig", "table2"},
		{"-warmup", "0", "-fig", "table2"},
		{"-seed", "0", "-fig", "table2"},
		{"-metrics", "x", "-fig", "table2"},
	} {
		stdout, stderr, code := run(t, bin, args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d with %d bytes on stdout, want exit 2 and none\nstderr: %s", args, code, len(stdout), stderr)
		}
		if args[0] == "-fig" && !strings.Contains(stderr, "table2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10") {
			t.Errorf("%v: stderr does not list the catalog's names:\n%s", args, stderr)
		}
	}
}

func TestTable2(t *testing.T) {
	stdout, stderr, code := run(t, buildCLI(t), "-fig", "table2")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, mix := range []string{"2-ILP", "2-MIX", "2-MEM", "4-ILP", "4-MIX", "4-MEM", "8-ILP", "8-MIX", "8-MEM"} {
		if !strings.Contains(stdout, mix) {
			t.Errorf("table 2 output missing %s:\n%s", mix, stdout)
		}
	}
}

// TestTraceDir: -trace writes one Chrome trace per simulation into the
// directory. A traced run bypasses the checkpoint cache, so the stderr
// summary's bypassed count is the number of runs.
func TestTraceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	_, stderr, code := run(t, buildCLI(t), "-fig", "6", "-warmup", "1000", "-target", "1000", "-jobs", "2", "-trace", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	var runs int
	if i := strings.Index(stderr, "bypassed="); i < 0 {
		t.Fatalf("no checkpoint summary on stderr:\n%s", stderr)
	} else if _, err := fmt.Sscanf(stderr[i:], "bypassed=%d", &runs); err != nil || runs == 0 {
		t.Fatalf("bypassed count: %d, %v\nstderr: %s", runs, err, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != runs {
		t.Fatalf("%d trace files for %d runs", len(files), runs)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &chrome); err != nil || chrome.TraceEvents == nil {
			t.Errorf("%s: not a Chrome trace (%v)", filepath.Base(f), err)
		}
	}
}
