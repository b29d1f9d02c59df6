package main

import (
	"fmt"
	"sort"
	"time"

	"smtdram/internal/core"
	"smtdram/internal/dram"
	"smtdram/internal/event"
	"smtdram/internal/mem"
	"smtdram/internal/memctrl"
	"smtdram/internal/workload"
)

// The twin only counts the boundaries that are crossed more than about once
// per simulated cycle — a pair of clock reads around Source.Next or
// Mapper.Map would cost more than the call. Those layers are timed here, by
// batch drivers that replay the twin's own recorded stream through a fresh
// instance of the layer alone.

// replayOps is how many operations a batch driver aims to time, so a
// workload with few DRAM requests (ilp8) still yields a resolvable figure.
const replayOps = 200_000

func replayRounds(n int) int {
	if n == 0 {
		return 0
	}
	if r := replayOps / n; r > 1 {
		return r
	}
	return 1
}

// replayMemctrl feeds the recorded requests to a fresh controller at their
// recorded arrival cycles and drains it: scheduling, bank timing and address
// mapping with no CPU or cache in the loop. It returns ns per request.
//
// The stream is a timing driver, not an oracle: TraceEvents do not carry the
// issuing thread's ROB/IQ occupancy, so a policy that ranks by it may order
// differently than the original run did.
func replayMemctrl(cfg core.Config, trace []memctrl.TraceEvent) (float64, error) {
	if len(trace) == 0 {
		return 0, nil
	}
	evs := append([]memctrl.TraceEvent(nil), trace...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Arrive < evs[j].Arrive })
	mcfg, err := memParts(cfg)
	if err != nil {
		return 0, err
	}
	reqs := make([]mem.Request, len(evs))
	var total time.Duration
	n := replayRounds(len(evs))
	for r := 0; r < n; r++ {
		var q event.Queue
		ctrl, err := memctrl.New(&q, mcfg)
		if err != nil {
			return 0, err
		}
		for i, ev := range evs {
			kind := mem.Write
			if ev.Read {
				kind = mem.Read
			}
			reqs[i] = mem.Request{ID: uint64(i + 1), Addr: ev.Addr, Kind: kind, Thread: ev.Thread}
		}
		t := time.Now()
		var now uint64
		for i := range reqs {
			if a := evs[i].Arrive; a > now {
				now = a
			}
			q.RunUntil(now)
			for tries := 0; !ctrl.Enqueue(now, &reqs[i]); tries++ {
				if tries > 1_000_000 {
					return 0, fmt.Errorf("bench: memctrl replay wedged at request %d", i)
				}
				now++
				q.RunUntil(now)
			}
		}
		for {
			at, ok := q.NextAt()
			if !ok {
				break
			}
			q.RunUntil(at)
		}
		total += time.Since(t)
	}
	return float64(total.Nanoseconds()) / float64(n*len(evs)), nil
}

// replayDRAM issues the recorded accesses, in issue order, to fresh channel
// devices: bank and bus timing alone. It returns ns per Channel.Access.
func replayDRAM(cfg core.Config, trace []memctrl.TraceEvent) (float64, error) {
	if len(trace) == 0 {
		return 0, nil
	}
	evs := append([]memctrl.TraceEvent(nil), trace...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Issue < evs[j].Issue })
	mcfg, err := memParts(cfg)
	if err != nil {
		return 0, err
	}
	geo := mcfg.Mapper.Geo
	var total time.Duration
	var sink uint64
	n := replayRounds(len(evs))
	for r := 0; r < n; r++ {
		chans := make([]*dram.Channel, geo.Channels)
		for i := range chans {
			if chans[i], err = dram.NewChannel(mcfg.Params, geo.ChipsPerChannel, geo.BanksPerChip); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		for i := range evs {
			ev := &evs[i]
			done, _ := chans[ev.Channel].Access(ev.Issue, ev.Chip, ev.Bank, ev.Row, ev.Read)
			sink += done
		}
		total += time.Since(t)
	}
	_ = sink
	return float64(total.Nanoseconds()) / float64(n*len(evs)), nil
}

// replayAddrmap decodes the recorded addresses: ns per Mapper.Map.
func replayAddrmap(cfg core.Config, trace []memctrl.TraceEvent) (float64, error) {
	if len(trace) == 0 {
		return 0, nil
	}
	mcfg, err := memParts(cfg)
	if err != nil {
		return 0, err
	}
	mapper := mcfg.Mapper
	var sink int
	n := replayRounds(len(trace))
	t := time.Now()
	for r := 0; r < n; r++ {
		for i := range trace {
			loc := mapper.Map(trace[i].Addr)
			sink += loc.Bank
		}
	}
	total := time.Since(t)
	_ = sink
	return float64(total.Nanoseconds()) / float64(n*len(trace)), nil
}

// replayWorkload draws from fresh generators as many instructions as the
// twin's generators produced: ns per Source.Next, and the count.
func replayWorkload(cfg core.Config, generated []uint64) (nsPerInstr float64, instrs uint64, err error) {
	var total time.Duration
	var sink uint64
	for i, name := range cfg.Apps {
		app, err := workload.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		g, err := workload.NewGen(app, i, cfg.Seed)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		for k := uint64(0); k < generated[i]; k++ {
			in := g.Next()
			sink += in.PC
		}
		total += time.Since(t)
		instrs += generated[i]
	}
	_ = sink
	if instrs == 0 {
		return 0, 0, nil
	}
	return float64(total.Nanoseconds()) / float64(instrs), instrs, nil
}
