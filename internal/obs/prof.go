package obs

import (
	"fmt"
	"strings"
	"time"
)

// megacycle is the wall-time reporting granularity.
const megacycle = 1_000_000

// LoopProf profiles the discrete-event loop: an events-fired-per-cycle
// histogram (how bursty the event queue drain is), and wall time per
// simulated megacycle (how fast the simulator itself runs). Wall-clock data
// is deliberately kept out of the deterministic metrics export; it is
// reported through Summary instead.
type LoopProf struct {
	// Hist is the events-fired-per-cycle histogram. When the profiler is
	// built over a Registry the histogram is registered there too.
	Hist *Histogram

	cycles    uint64
	lastFired uint64
	start     time.Time
	megaStart time.Time
	nextMega  uint64
	megaWall  []time.Duration
	total     time.Duration
}

// newLoopProf builds a profiler; reg may be nil (standalone histogram).
func newLoopProf(reg *Registry) *LoopProf {
	bounds := []uint64{0, 1, 2, 4, 8, 16, 32}
	p := &LoopProf{nextMega: megacycle, start: time.Now()}
	p.megaStart = p.start
	if reg != nil {
		p.Hist = reg.Histogram("event.events_per_cycle", bounds)
	} else {
		p.Hist = newHistogram("event.events_per_cycle", bounds)
	}
	return p
}

// cycle records simulated cycle now; fired is the queue's cumulative count.
// The two-speed clock shows the profiler only the cycles it lands on or fires
// events in, so the cycles since the last one seen were event-free and idle
// charges each a zero. (The profiler counts from cycle 0, so cycles is also
// the last cycle seen.)
func (p *LoopProf) cycle(now, fired uint64) {
	p.idle(now - 1)
	p.cycles = now
	p.Hist.Observe(fired - p.lastFired)
	p.lastFired = fired
}

// idle charges the event-free cycles after the last one seen, through to. The
// megacycle wall clock gains one entry per mark it finds crossed.
func (p *LoopProf) idle(to uint64) {
	p.Hist.ObserveN(0, to-p.cycles)
	p.cycles = to
	for p.nextMega <= to {
		p.megaWall = append(p.megaWall, time.Since(p.megaStart))
		p.megaStart = time.Now()
		p.nextMega += megacycle
	}
}

// finish closes the profile at the run's final cycle: a run that ends by
// sailing out of its budget leaves an event-free tail to charge.
func (p *LoopProf) finish(now uint64) {
	p.idle(now)
	p.total = time.Since(p.start)
}

// Cycles returns the number of simulated cycles observed.
func (p *LoopProf) Cycles() uint64 { return p.cycles }

// Summary renders a human-readable profile report.
func (p *LoopProf) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "event loop: %d cycles, %d events (%.3f events/cycle, max %d/cycle)\n",
		p.cycles, p.lastFired, p.Hist.Mean(), p.Hist.Max())
	fmt.Fprintf(&b, "events/cycle histogram: %s\n", p.Hist)
	if p.total > 0 && p.cycles > 0 {
		fmt.Fprintf(&b, "wall: %v total, %.2f Mcycles/s",
			p.total.Truncate(time.Microsecond),
			float64(p.cycles)/1e6/p.total.Seconds())
		if len(p.megaWall) > 0 {
			b.WriteString(", per megacycle:")
			for _, d := range p.megaWall {
				fmt.Fprintf(&b, " %v", d.Truncate(time.Microsecond))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
