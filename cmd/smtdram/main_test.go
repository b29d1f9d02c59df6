package main_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
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
		"frobnicate:rate=1",                  // unknown clause
		"bitflip:rate=1e-6",                  // removed clause: unknown
		"stuckrow:ch=0,chip=0,bank=1,row=42", // removed clause: unknown
		"channel-fail:ch=1,at=100",           // removed clause: unknown
		"drop:rate=abc",                      // malformed number
		"drop:rate=1e-6,rate=0.5",            // duplicate key
		"drop:rate=0.1;drop:rate=0.2",        // repeated clause
		"drop:rate=NaN",                      // parses, fails validation
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
	// failed simulation. A removed policy is as unknown as a made-up one.
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-policy", "criticality-based"},
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
		if !strings.Contains(string(out), args[1]) {
			t.Errorf("%v: stderr %q does not name the bad value", args, out)
		}
		if args[0] == "-policy" && !strings.Contains(string(out), "want one of fcfs, hit-first, age-based, request-based, rob-based, iq-based)") {
			t.Errorf("%v: stderr %q does not list the six policies", args, out)
		}
	}

	// A machine Validate refuses is caught behind the same exit-2 path: the
	// flags parse, but shape a machine that cannot run.
	out, err := exec.Command(bin, "-channels", "3", "-target", "1000").CombinedOutput()
	var xe *exec.ExitError
	if !errors.As(err, &xe) || xe.ExitCode() != 2 {
		t.Errorf("-channels 3: err = %v, want exit 2 (output: %s)", err, out)
	}

	// A flag the command does not define is a usage error too.
	out, err = exec.Command(bin, "-metrics", "x", "-target", "1000").CombinedOutput()
	if !errors.As(err, &xe) || xe.ExitCode() != 2 || !strings.Contains(string(out), "-metrics") {
		t.Errorf("-metrics x: err = %v, want exit 2 naming the flag (output: %s)", err, out)
	}
}

// TestTraceOutput: -trace picks the format from the path, JSON lines for
// .jsonl and Chrome trace_event JSON for anything else, and the run's trace
// holds the memory requests it made.
func TestTraceOutput(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	trace := func(name string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		out, err := exec.Command(bin, "-mix", "2-MEM", "-warmup", "2000", "-target", "3000", "-trace", path).CombinedOutput()
		if err != nil {
			t.Fatalf("-trace %s: %v\n%s", name, err, out)
		}
		if !strings.Contains(string(out), "lifecycle events -> "+path) {
			t.Errorf("-trace %s: report does not name the trace file:\n%s", name, out)
		}
		return path
	}

	f, err := os.Open(trace("x.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("x.jsonl line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["enqueue"] == 0 || kinds["done"] == 0 {
		t.Errorf("x.jsonl has no enqueue or done events: %v", kinds)
	}

	b, err := os.ReadFile(trace("x.json"))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &chrome); err != nil {
		t.Fatalf("x.json is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("x.json has no traceEvents")
	}

	// The report ends with the trace's read-latency table and choice counts;
	// with -json they go to stderr and stdout is the result alone.
	out, err := exec.Command(bin, "-mix", "2-MEM", "-warmup", "2000", "-target", "3000", "-trace", filepath.Join(dir, "y.jsonl")).Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nall ", "choices at ", "oldest ready read dispatched"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-trace report lacks %q:\n%s", want, out)
		}
	}
	cmd := exec.Command(bin, "-mix", "2-MEM", "-warmup", "2000", "-target", "3000", "-json", "-trace", filepath.Join(dir, "z.jsonl"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if out, err = cmd.Output(); err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(out, &res); err != nil {
		t.Errorf("-json -trace stdout is not one JSON value: %v\n%s", err, out)
	}
	if !strings.Contains(stderr.String(), "choices at ") {
		t.Errorf("-json -trace stderr lacks the trace report:\n%s", stderr.String())
	}
}
