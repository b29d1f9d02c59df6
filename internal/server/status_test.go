package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"smtdram/internal/core"
)

// TestWriteStatusBytes holds writeStatus to the encoder it replaces: for
// every status it writes json.Marshal(status) plus a newline, byte for byte,
// with a matching Content-Length. Between them the rows set every JobStatus
// field, so a field the writer drops or moves fails a row.
func TestWriteStatusBytes(t *testing.T) {
	simRes, err := json.Marshal(core.Result{
		Apps: []string{"mcf", "ammp"}, IPC: []float64{0.31, 1.25}, Cycles: 123456,
		MemReads: 789, AvgReadLatency: 212.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	figRes, err := json.Marshal(struct {
		Fig    string `json:"fig"`
		Output string `json:"output"`
	}{Fig: "fig10", Output: "| policy | 2-MEM |\n|---|---|\n| <fcfs> & hit-first > 1.0 | 1.156 |\n"})
	if err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`} { // json.Marshal's HTML escapes
		if !bytes.Contains(figRes, []byte(esc)) {
			t.Fatalf("figure result lacks %s: %s", esc, figRes)
		}
	}
	progress, err := json.Marshal(core.Progress{Cycle: 5000, Committed: 2100, TargetTotal: 8000, IPC: 0.42})
	if err != nil {
		t.Fatal(err)
	}
	skip := &SkipInfo{Skipped: 1000, Wall: 4000, Segments: 3, Longest: 700, Rate: 0.25}

	cases := []struct {
		name string
		st   JobStatus
	}{
		{"sim hit with skip", JobStatus{ID: "j-w1-7", Kind: "sim", State: StateDone,
			Fingerprint: "v9|abc", Cached: true, Result: simRes, Skip: skip}},
		{"figure hit without skip", JobStatus{ID: "j-3", Kind: "figure", State: StateDone,
			Fingerprint: "fig|fig10|1|2|3", Cached: true, Result: figRes}},
		{"running with progress", JobStatus{ID: "j-4", Kind: "sim", State: StateRunning,
			Fingerprint: "v9|def", Deduped: true, Progress: progress}},
		{"failed with error", JobStatus{ID: "j-5", Kind: "sim", State: StateFailed,
			Fingerprint: "v9|ghi", Error: `run failed: "<watchdog>" & more`}},
		{"queued, nothing optional", JobStatus{ID: "j-6", Kind: "sim", State: StateQueued, Fingerprint: "v9|jkl"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(tc.st)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			rec := httptest.NewRecorder()
			writeStatus(rec, http.StatusOK, tc.st)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("writeStatus wrote\n%s\nthe encoder writes\n%s", got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("Content-Length %q, body %d bytes", cl, len(want))
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		})
	}

	// The writer appends the spliced fields after the encoded rest, so they
	// must stay the struct's last three.
	typ := reflect.TypeOf(JobStatus{})
	var tail []string
	for i := typ.NumField() - 3; i < typ.NumField(); i++ {
		tail = append(tail, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(tail, []string{"Result", "Progress", "Skip"}) {
		t.Fatalf("JobStatus ends with %v; writeStatus splices Result, Progress, Skip last", tail)
	}
}
