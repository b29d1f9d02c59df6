package fleet_test

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"smtdram/internal/fleet"
	"smtdram/internal/server"
	"smtdram/internal/server/client"
)

// TestForwardedHitBytes bounds what one warm /v1/sim hit allocates end to end
// through the coordinator — client, proxy hop and worker together: about
// 23.3 KB in 250 objects, bounded at that plus 20%. The proxy copies every
// forwarded response through a pooled buffer, and the worker writes the status
// through a pooled one; a proxy that allocates its own 32 KB buffer per
// response exceeds the bound.
func TestForwardedHitBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	const hits, bound = 500, 28 << 10
	f := startFleet(t, fleet.LocalConfig{
		Nodes:       []fleet.LocalNode{{ID: "w1"}, {ID: "w2"}},
		Worker:      server.Config{Workers: 1},
		Coordinator: fleet.CoordinatorConfig{ProbeInterval: time.Hour},
	})
	c := client.New(f.CoordURL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	t.Cleanup(c.HTTP.CloseIdleConnections)
	ctx := context.Background()
	reqs := []server.SimRequest{smallSim(1), smallSim(2), smallSim(3), smallSim(4)}
	for _, req := range reqs {
		submitAndWait(t, c, req)
	}
	hit := func(i int) {
		st, err := c.SubmitSim(ctx, reqs[i%len(reqs)])
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached || len(st.Result) == 0 {
			t.Fatalf("hit %d: not a cache hit carrying its result: %+v", i, st)
		}
	}
	for i := 0; i < 20; i++ { // connections dialled, pools filled
		hit(i)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < hits; i++ {
		hit(i)
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / hits
	t.Logf("a forwarded warm hit allocates %.1f KB in %d objects (%d GC cycles over %d hits)",
		per/1024, (m1.Mallocs-m0.Mallocs)/hits, m1.NumGC-m0.NumGC, hits)
	if per > bound {
		t.Fatalf("a forwarded warm hit allocates %.1f KB, bound %d KB", per/1024, bound>>10)
	}
}

// TestCoordinatorJudgesBodiesLikeAWorker sends each body through a
// coordinator and straight to a worker of another, fresh fleet: both front
// doors decode with server.DecodeBody, so the status must agree.
func TestCoordinatorJudgesBodiesLikeAWorker(t *testing.T) {
	const valid = `{"apps":["mcf"],"warmup":1000,"target":2000}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"valid", valid, http.StatusAccepted},
		{"trailing data", valid + " x", http.StatusBadRequest},
		{"second value", valid + " {}", http.StatusBadRequest},
		{"unknown field", `{"apps":["mcf"],"target":2000,"bogus":1}`, http.StatusBadRequest},
		{"over 1 MiB", valid + strings.Repeat(" ", 1<<20), http.StatusBadRequest},
	}
	one := fleet.LocalConfig{Nodes: []fleet.LocalNode{{ID: "w1"}}}
	coord := startFleet(t, one).CoordURL
	worker := startFleet(t, one).Workers[0].URL
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, base := range []string{coord, worker} {
				resp, err := http.Post(base+"/v1/sim", "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s: status %d, want %d", base, resp.StatusCode, tc.want)
				}
			}
		})
	}
}

// TestLocalFleetCloseLeavesNothingRunning: a local fleet is goroutines in the
// caller's process, and Close ends them. After a cold job and 200 warm hits
// on durable workers, with the client's idle connections closed, Close
// returns within 2 s, and the coordinator and every worker refuse a dial.
func TestLocalFleetCloseLeavesNothingRunning(t *testing.T) {
	f, err := fleet.StartLocal(fleet.LocalConfig{
		Nodes:       []fleet.LocalNode{{ID: "w1", DataDir: t.TempDir()}, {ID: "w2", DataDir: t.TempDir()}},
		Coordinator: fleet.CoordinatorConfig{ProbeInterval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			f.Close()
		}
	})
	if err := f.WaitReady(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c := client.New(f.CoordURL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	req := smallSim(5)
	submitAndWait(t, c, req)
	for i := 0; i < 200; i++ {
		st, err := c.SubmitSim(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("hit %d: not a cache hit: %+v", i, st)
		}
	}
	c.HTTP.CloseIdleConnections()

	t0 := time.Now()
	f.Close()
	closed = true
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("Close took %v, want under 2s", d)
	}
	urls := []string{f.CoordURL}
	for _, w := range f.Workers {
		urls = append(urls, w.URL)
	}
	for _, u := range urls {
		conn, err := net.DialTimeout("tcp", strings.TrimPrefix(u, "http://"), time.Second)
		if err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after Close", u)
		}
	}
}
