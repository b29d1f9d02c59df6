package main_test

import (
	"bytes"
	"errors"
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
// the comma list — or an unknown format is a usage error: exit 2, nothing
// simulated, nothing on stdout, the valid names on stderr. A sweep script
// with a typo must not get an empty (or silently shorter) file and a green
// exit.
func TestBadInvocationExitsTwo(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-fig", "11"},
		{"-fig", "6,bogus"},
		{"-format", "bogus", "-fig", "table2"},
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
