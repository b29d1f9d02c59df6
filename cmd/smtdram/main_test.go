package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles cmd/smtdram for the exit-code tests.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "smtdram")
	out, err := exec.Command("go", "build", "-o", bin, "smtdram/cmd/smtdram").CombinedOutput()
	if err != nil {
		t.Fatalf("building smtdram: %v\n%s", err, out)
	}
	return bin
}

// TestBadFaultSpecExitsTwo pins the flag-validation contract: a malformed
// -faults spec is a usage error (exit 2, message on stderr), distinct from
// simulation failures (exit 1). Scripts rely on the split to tell "fix the
// command line" from "the run broke".
func TestBadFaultSpecExitsTwo(t *testing.T) {
	bin := buildCLI(t)
	for _, spec := range []string{
		"frobnicate:rate=1",          // unknown clause
		"bitflip:rate=abc",           // malformed number
		"bitflip:rate=1e-6,rate=0.5", // duplicate key
		"channel-fail:ch=0",          // missing at=
	} {
		out, err := exec.Command(bin, "-faults", spec, "-target", "1000").CombinedOutput()
		var xe *exec.ExitError
		if !errors.As(err, &xe) {
			t.Errorf("-faults %q: err = %v, want exit error (output: %s)", spec, err, out)
			continue
		}
		if code := xe.ExitCode(); code != 2 {
			t.Errorf("-faults %q exited %d, want 2 (output: %s)", spec, code, out)
		}
		if !strings.Contains(string(out), "faults:") {
			t.Errorf("-faults %q: stderr %q does not name the faults spec", spec, out)
		}
	}

	// Every other name the flags carry goes through the same resolver and
	// gets the same answer: an unresolvable one is a usage error, not a
	// failed simulation.
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-dram", "bogus"},
		{"-fetch", "bogus"},
		{"-scheme", "bogus"},
		{"-pagemode", "bogus"},
		{"-mix", "bogus"},
		{"-apps", "nosuchapp"},
	} {
		out, err := exec.Command(bin, append(args, "-target", "1000")...).CombinedOutput()
		var xe *exec.ExitError
		if !errors.As(err, &xe) || xe.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit 2 (output: %s)", args, err, out)
		}
		if !strings.Contains(string(out), "bogus") && !strings.Contains(string(out), "nosuchapp") {
			t.Errorf("%v: stderr %q does not name the bad value", args, out)
		}
	}

	// An out-of-range channel is caught by Validate behind the same exit-2
	// path: the spec parses, but cannot run on the machine the flags shape.
	out, err := exec.Command(bin, "-faults", "channel-fail:ch=9,at=100", "-channels", "4", "-target", "1000").CombinedOutput()
	var xe *exec.ExitError
	if !errors.As(err, &xe) || xe.ExitCode() != 2 {
		t.Errorf("out-of-range channel: err = %v, want exit 2 (output: %s)", err, out)
	}
}
