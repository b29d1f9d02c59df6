package obs

import "sort"

// Machine is what Attribute needs of the memory system beyond the trace: the
// number of requests a channel dispatches before the earliest completes
// (memctrl's MaxInFlight), and how long a bank stays busy after a transfer's
// last beat (tRP under close page, 0 under open page).
type Machine struct {
	Window   int
	BankHold uint64
}

// LatencySplit divides DRAM read latency, enqueue to last data beat, into
// parts that sum to it. Each cycle of queueing, enqueue to dispatch, goes to
// the first of these that holds:
//   - Older: the read's own bank is serving an older request;
//   - Overtaken: its own bank is serving a younger request;
//   - WindowFull: its channel has Machine.Window requests in flight;
//   - BankFree: none of these, so the read could have been dispatched and
//     was not (head-of-line blocking).
//
// Service, dispatch to last beat, is Prep (bank work to the end of the column
// access), BusWait (the data bus still busy) and Transfer (the burst).
type LatencySplit struct {
	Older, Overtaken, WindowFull, BankFree uint64
	Prep, BusWait, Transfer                uint64
}

// Total is the latency the parts sum to.
func (s LatencySplit) Total() uint64 {
	return s.Older + s.Overtaken + s.WindowFull + s.BankFree + s.Prep + s.BusWait + s.Transfer
}

// Plus adds two splits part by part.
func (s LatencySplit) Plus(o LatencySplit) LatencySplit {
	return LatencySplit{
		Older: s.Older + o.Older, Overtaken: s.Overtaken + o.Overtaken,
		WindowFull: s.WindowFull + o.WindowFull, BankFree: s.BankFree + o.BankFree,
		Prep: s.Prep + o.Prep, BusWait: s.BusWait + o.BusWait, Transfer: s.Transfer + o.Transfer,
	}
}

// ReadLatency is one read's split.
type ReadLatency struct {
	ReqID         uint64
	Thread        int
	Enqueue, Done uint64
	LatencySplit
}

// ThreadReads sums the split reads of one hardware thread.
type ThreadReads struct {
	Reads uint64
	Sum   LatencySplit
}

// Attribution is what Attribute finds in a trace.
type Attribution struct {
	// Reads holds every read that was enqueued, dispatched once and done, in
	// enqueue order.
	Reads []ReadLatency
	// Unsplit counts the other enqueued reads: in flight when the run ended,
	// or retried after a dropped transfer.
	Unsplit int
	// Choices[k] counts the dispatches at which k requests queued on the
	// channel, the dispatched one included, had a free bank: the scheduler's
	// choice count.
	Choices []uint64
	// ReadyReads counts the dispatches at which some queued read had a free
	// bank; OldestPicked those at which the oldest of them was dispatched.
	ReadyReads, OldestPicked uint64
}

// ByThread sums the split reads per hardware thread.
func (a Attribution) ByThread() []ThreadReads {
	var out []ThreadReads
	for _, r := range a.Reads {
		if r.Thread < 0 {
			continue
		}
		for len(out) <= r.Thread {
			out = append(out, ThreadReads{})
		}
		out[r.Thread].Reads++
		out[r.Thread].Sum = out[r.Thread].Sum.Plus(r.LatencySplit)
	}
	return out
}

// span is a half-open cycle interval; seq is the enqueue order of the
// request a bank span serves.
type span struct {
	from, to, seq uint64
}

// traced is one request as the replay sees it.
type traced struct {
	id, seq, enq     uint64
	thread, ch, bank int
	read             bool
	issue, casEnd    uint64
	dataStart, data  uint64
	done             uint64
	issues           int
	finished, moved  bool
}

// Attribute replays a lifecycle trace — every event of a run, in emission
// order — and splits each read's latency (LatencySplit) and counts the
// scheduler's choices at every dispatch. It needs nothing but the trace and
// m: a bank is busy from a dispatch to its last beat plus m.BankHold, and a
// channel holds a request in flight from its dispatch to its last beat.
//
// All-bank refresh does not appear in the trace, so on a machine that
// refreshes, a read waiting out a refresh counts it as BankFree or
// WindowFull. A read retried after a dropped transfer is left unsplit, and
// no choice count includes a request queued again that way.
func Attribute(events []Event, m Machine) Attribution {
	type bankKey struct{ ch, chip, bank int }
	bankOf := map[bankKey]int{}
	var bankFree []uint64  // cycle each bank is next free
	var bankSpans [][]span // each bank's busy spans, in dispatch order
	inFlight := map[int][]span{}
	queue := map[int][]*traced{} // each channel's queued requests, oldest first
	reqs := map[uint64]*traced{}
	var reads []*traced
	var a Attribution
	var seq uint64

	for _, e := range events {
		r := reqs[e.ReqID]
		switch e.Kind {
		case KEnqueue:
			k := bankKey{e.Channel, e.Chip, e.Bank}
			b, ok := bankOf[k]
			if !ok {
				b = len(bankFree)
				bankOf[k] = b
				bankFree = append(bankFree, 0)
				bankSpans = append(bankSpans, nil)
			}
			r = &traced{id: e.ReqID, seq: seq, enq: e.At, thread: e.Thread, ch: e.Channel, bank: b, read: e.Read}
			seq++
			reqs[e.ReqID] = r
			queue[r.ch] = append(queue[r.ch], r)
			if r.read {
				reads = append(reads, r)
			}
		case KIssue:
			if r == nil {
				continue
			}
			r.issue = e.At
			r.issues++
			q := queue[r.ch]
			choices, at := 0, -1
			var oldest *traced
			for i, c := range q {
				if c == r {
					at = i
				}
				if bankFree[c.bank] > e.At {
					continue
				}
				choices++
				if oldest == nil && c.read {
					oldest = c
				}
			}
			for len(a.Choices) <= choices {
				a.Choices = append(a.Choices, 0)
			}
			a.Choices[choices]++
			if oldest != nil {
				a.ReadyReads++
				if oldest == r {
					a.OldestPicked++
				}
			}
			if at >= 0 {
				queue[r.ch] = append(q[:at], q[at+1:]...)
			}
		case KCAS:
			if r != nil {
				r.casEnd = e.End
			}
		case KData:
			if r == nil {
				continue
			}
			r.dataStart, r.data = e.At, e.End
			bankFree[r.bank] = e.End + m.BankHold
			bankSpans[r.bank] = append(bankSpans[r.bank], span{r.issue, e.End + m.BankHold, r.seq})
			inFlight[r.ch] = append(inFlight[r.ch], span{from: r.issue, to: e.End})
		case KDone:
			if r != nil {
				r.finished, r.done = true, e.At
			}
		case KRetry:
			if r != nil {
				r.moved = true
			}
		}
	}

	full := map[int][]span{}
	for ch, fl := range inFlight {
		full[ch] = fullSpans(fl, m.Window)
	}
	for _, r := range reads {
		if !r.finished || r.moved || r.issues != 1 {
			a.Unsplit++
			continue
		}
		s := LatencySplit{
			Prep:     r.casEnd - r.issue,
			BusWait:  r.dataStart - r.casEnd,
			Transfer: r.data - r.dataStart,
		}
		spans := bankSpans[r.bank]
		k := sort.Search(len(spans), func(i int) bool { return spans[i].to > r.enq })
		for t := r.enq; t < r.issue; {
			if k < len(spans) && spans[k].to <= t {
				k++ // a span that does not reach t: only a malformed trace has one
				continue
			}
			if k < len(spans) && spans[k].from <= t {
				end := min(spans[k].to, r.issue)
				if spans[k].seq < r.seq {
					s.Older += end - t
				} else {
					s.Overtaken += end - t
				}
				t = end
				k++
				continue
			}
			end := r.issue
			if k < len(spans) && spans[k].from < end {
				end = spans[k].from
			}
			f := overlap(full[r.ch], t, end)
			s.WindowFull += f
			s.BankFree += end - t - f
			t = end
		}
		a.Reads = append(a.Reads, ReadLatency{ReqID: r.id, Thread: r.thread, Enqueue: r.enq, Done: r.done, LatencySplit: s})
	}
	return a
}

// fullSpans returns, in order, the maximal spans during which at least w of
// the in-flight spans fl overlap.
func fullSpans(fl []span, w int) []span {
	type step struct {
		at uint64
		d  int
	}
	steps := make([]step, 0, 2*len(fl))
	for _, s := range fl {
		steps = append(steps, step{s.from, 1}, step{s.to, -1})
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	var out []span
	n, open := 0, false
	for i := 0; i < len(steps); {
		at := steps[i].at
		for ; i < len(steps) && steps[i].at == at; i++ {
			n += steps[i].d
		}
		switch {
		case n >= w && !open:
			out = append(out, span{from: at})
			open = true
		case n < w && open:
			out[len(out)-1].to = at
			open = false
		}
	}
	return out
}

// overlap is how many cycles of [from, to) the ordered spans cover.
func overlap(spans []span, from, to uint64) uint64 {
	var n uint64
	for i := sort.Search(len(spans), func(i int) bool { return spans[i].to > from }); i < len(spans) && spans[i].from < to; i++ {
		n += min(spans[i].to, to) - max(spans[i].from, from)
	}
	return n
}
