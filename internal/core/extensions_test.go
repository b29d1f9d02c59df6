package core

import (
	"testing"

	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
)

// End-to-end coverage for the beyond-the-paper extensions: refresh, bus
// turnaround, and DRAM tracing.

func TestRefreshCostsPerformance(t *testing.T) {
	ideal, err := Run(fastCfg("swim"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg("swim")
	cfg.Mem.Refresh = true
	refreshed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh is a small tax: it must cost something but not cripple.
	if refreshed.IPC[0] > ideal.IPC[0] {
		t.Fatalf("refresh improved IPC: %.4f vs %.4f", refreshed.IPC[0], ideal.IPC[0])
	}
	if refreshed.IPC[0] < ideal.IPC[0]*0.8 {
		t.Fatalf("refresh cost %.1f%%, implausibly high",
			100*(1-refreshed.IPC[0]/ideal.IPC[0]))
	}
}

func TestTurnaroundCostsPerformance(t *testing.T) {
	ideal, err := Run(fastCfg("swim", "lucas"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg("swim", "lucas")
	cfg.Mem.TurnaroundNS = 10
	pen, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pen.TotalIPC() > ideal.TotalIPC() {
		t.Fatalf("turnaround penalty improved IPC: %.4f vs %.4f", pen.TotalIPC(), ideal.TotalIPC())
	}
}

// Over the request-lifecycle trace: instants are stamped with the cycle that
// emitted them, so they appear in nondecreasing order; each request is issued
// no earlier than it was enqueued and completes strictly after its issue; and
// every event lies inside the machine's geometry.
func TestTraceEventsConsistent(t *testing.T) {
	ob := &obs.Observer{Trace: obs.NewTracer()}
	cfg := fastCfg("mcf", "ammp")
	cfg.Observe = func() *obs.Observer { return ob }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	geo, _ := cfg.Mem.Geometry()
	enqueued, issued := map[uint64]uint64{}, map[uint64]uint64{}
	var now, issues, reads uint64
	for _, e := range ob.Trace.Events() {
		if e.End < e.At {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.End == e.At {
			if e.At < now {
				t.Fatalf("instant at %d emitted after cycle %d: %+v", e.At, now, e)
			}
			now = e.At
		}
		if e.Channel < 0 || e.Channel >= geo.Channels ||
			e.Bank < 0 || e.Bank >= geo.BanksPerChip ||
			e.Chip < 0 || e.Chip >= geo.ChipsPerChannel {
			t.Fatalf("event location out of range: %+v", e)
		}
		switch e.Kind {
		case obs.KEnqueue:
			enqueued[e.ReqID] = e.At
		case obs.KIssue:
			if at, ok := enqueued[e.ReqID]; !ok || e.At < at {
				t.Fatalf("issued before enqueue: %+v", e)
			}
			issued[e.ReqID] = e.At
			issues++
			if e.Read {
				reads++
				if e.Thread < 0 || e.Thread > 1 {
					t.Fatalf("read from thread %d", e.Thread)
				}
			}
		case obs.KDone:
			if at, ok := issued[e.ReqID]; !ok || e.At <= at {
				t.Fatalf("done without a prior issue: %+v", e)
			}
		}
	}
	if issues < res.MemReads {
		t.Fatalf("traced %d dispatches but measured %d reads", issues, res.MemReads)
	}
	if reads == 0 {
		t.Fatal("no read events traced")
	}
}

func TestThreadAwareFirstPlumbing(t *testing.T) {
	cfg := fastCfg("mcf", "ammp")
	cfg.Mem.Policy = memctrl.RequestBased
	cfg.Mem.ThreadAwareFirst = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("inverted-priority run made no progress")
	}
}
