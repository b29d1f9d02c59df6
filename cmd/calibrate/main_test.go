package main_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles cmd/calibrate for the exit-code tests.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "calibrate")
	out, err := exec.Command("go", "build", "-o", bin, "smtdram/cmd/calibrate").CombinedOutput()
	if err != nil {
		t.Fatalf("building calibrate: %v\n%s", err, out)
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

// TestInvocation: an application the models lack — even after a good one —
// or an unknown format is a usage error, exit 2 with nothing simulated and
// nothing on stdout; a good invocation prints the characterization, each
// row's class in its label.
func TestInvocation(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-warmup", "1000", "-target", "1000", "gzip", "bogus"},
		{"-format", "yaml", "gzip"},
	} {
		stdout, stderr, code := run(t, bin, args...)
		if code != 2 || stdout != "" || strings.Contains(stderr, "gzip done") {
			t.Errorf("%v: exit %d with %d bytes on stdout, want exit 2, none and nothing run\nstderr: %s", args, code, len(stdout), stderr)
		}
	}

	stdout, stderr, code := run(t, bin, "-warmup", "1000", "-target", "1000", "-format", "csv", "gzip")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if want := "app,IPC,CPI,memReads/100,rowMiss,L1D miss,L2 miss"; len(lines) != 2 || lines[0] != want || !strings.HasPrefix(lines[1], "gzip (") {
		t.Fatalf("stdout %q, want the header %q and one gzip row", stdout, want)
	}
}
