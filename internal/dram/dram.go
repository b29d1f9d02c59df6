// Package dram models the DRAM devices behind each logical memory channel:
// per-bank row-buffer state machines, the operation timing (precharge, row
// access, column access), the shared data bus, and open/close page modes.
//
// All times are expressed in CPU cycles. The paper's machine runs at 3 GHz
// with 15 ns row, column, and precharge times (45 CPU cycles each); DDR
// channels are 16 bytes wide at 200 MHz DDR, Direct Rambus channels are
// 2 bytes wide at 800 MT/s.
package dram

import (
	"fmt"
	"strings"
)

// PageMode selects what happens to the row buffer after a column access.
type PageMode int

const (
	// OpenPage keeps the accessed row latched in the row buffer, betting the
	// next access to the bank will hit the same row.
	OpenPage PageMode = iota
	// ClosePage precharges the bank immediately after every column access,
	// favoring streams of accesses that would miss anyway.
	ClosePage
)

func (m PageMode) String() string {
	if m == OpenPage {
		return "open"
	}
	return "close"
}

// ParsePageMode converts a name as String prints it, in any letter case.
func ParsePageMode(s string) (PageMode, error) {
	for _, v := range []PageMode{OpenPage, ClosePage} {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("dram: unknown page mode %q (want open or close)", s)
}

// Params is a DRAM timing parameter set, in CPU cycles.
type Params struct {
	// Name labels the technology ("DDR", "RDRAM") in stats output.
	Name string
	// TRCD is the row access (activate) time.
	TRCD uint64
	// CL is the column access (CAS) latency.
	CL uint64
	// TRP is the precharge time.
	TRP uint64
	// Burst is the data-bus occupancy of one full line transfer.
	Burst uint64
	// Mode is the page policy.
	Mode PageMode
	// Turnaround is the extra bus idle time inserted when the data bus
	// switches direction (read→write or write→read). Zero disables the
	// model; the overhead is the one write-buffer studies target
	// (Cuppu & Jacob; Skadron & Clark).
	Turnaround uint64
	// RefreshInterval, when non-zero, triggers an all-bank refresh every
	// that many cycles; every bank is occupied for RefreshDuration and its
	// row buffer closes. At 3 GHz a realistic setting is ~23400/210
	// (7.8 µs tREFI, 70 ns tRFC).
	RefreshInterval uint64
	// RefreshDuration is the per-refresh bank busy time.
	RefreshDuration uint64
}

// Validate rejects zero timings, which would let the simulator spin.
func (p Params) Validate() error {
	if p.TRCD == 0 || p.CL == 0 || p.TRP == 0 || p.Burst == 0 {
		return fmt.Errorf("dram: zero timing in %+v", p)
	}
	return nil
}

// cyclesPerNS for the paper's 3 GHz core.
const cyclesPerNS = 3

// burstCycles returns the bus occupancy of lineBytes transferred over a
// channel moving bytesPerNS bytes each nanosecond, in CPU cycles, with a
// floor of one bus beat.
func burstCycles(lineBytes int, bytesPerNS float64) uint64 {
	ns := float64(lineBytes) / bytesPerNS
	c := uint64(ns*cyclesPerNS + 0.5)
	if c == 0 {
		c = 1
	}
	return c
}

// DDRParams builds the paper's DDR SDRAM timing for a logical channel of the
// given width in bytes (16 per physical channel; wider when channels are
// ganged). The bus runs at 200 MHz double data rate: 0.4 transfers/ns.
func DDRParams(widthBytes, lineBytes int, mode PageMode) Params {
	return Params{
		Name: "DDR",
		TRCD: 15 * cyclesPerNS,
		CL:   15 * cyclesPerNS,
		TRP:  15 * cyclesPerNS,
		// 200 MHz DDR: 2 transfers per 5 ns clock = 0.4 transfers/ns.
		Burst: burstCycles(lineBytes, 0.4*float64(widthBytes)),
		Mode:  mode,
	}
}

// RDRAMParams builds Direct Rambus timing: a narrow 2-byte bus at 800 MT/s
// (1.6 bytes/ns), same core array timings.
func RDRAMParams(lineBytes int, mode PageMode) Params {
	return Params{
		Name:  "RDRAM",
		TRCD:  15 * cyclesPerNS,
		CL:    15 * cyclesPerNS,
		TRP:   15 * cyclesPerNS,
		Burst: burstCycles(lineBytes, 1.6),
		Mode:  mode,
	}
}

// Outcome classifies a DRAM access by the row-buffer state it found.
type Outcome int

const (
	// Hit: the addressed row was already open; column access only.
	Hit Outcome = iota
	// Closed: the bank was precharged; row access then column access.
	Closed
	// Conflict: another row was open; precharge, row access, column access.
	Conflict
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Closed:
		return "closed"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// bank is one independent DRAM bank.
type bank struct {
	openRow int64 // -1 when precharged/closed
	readyAt uint64
}

// Channel is one logical memory channel: a grid of banks sharing a data bus.
type Channel struct {
	p             Params
	banks         []bank // chip-major: banks[chip*banksPerChip+bank]
	perChip       int
	busFreeAt     uint64
	lastWasWrite  bool
	nextRefreshAt uint64

	// Stats counts accesses by outcome.
	Stats struct {
		Hits        uint64
		Closed      uint64
		Conflicts   uint64
		Reads       uint64
		Writes      uint64
		BusBusy     uint64 // cycles of data-bus occupancy accumulated
		Turnarounds uint64 // bus direction switches penalized
		Refreshes   uint64 // all-bank refreshes performed
	}
}

// NewChannel builds a channel with chips × banksPerChip independent banks,
// all initially precharged.
func NewChannel(p Params, chips, banksPerChip int) (*Channel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if chips <= 0 || banksPerChip <= 0 {
		return nil, fmt.Errorf("dram: non-positive bank grid %d×%d", chips, banksPerChip)
	}
	c := &Channel{p: p, banks: make([]bank, chips*banksPerChip), perChip: banksPerChip}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	if p.RefreshInterval > 0 {
		c.nextRefreshAt = p.RefreshInterval
	}
	return c, nil
}

// applyRefresh performs any all-bank refreshes due by now: each occupies
// every bank for RefreshDuration and closes its row buffer.
func (c *Channel) applyRefresh(now uint64) {
	if c.p.RefreshInterval == 0 {
		return
	}
	for now >= c.nextRefreshAt {
		start := c.nextRefreshAt
		for i := range c.banks {
			b := &c.banks[i]
			if b.readyAt < start {
				b.readyAt = start
			}
			b.readyAt += c.p.RefreshDuration
			b.openRow = -1
		}
		c.Stats.Refreshes++
		c.nextRefreshAt += c.p.RefreshInterval
	}
}

// Params returns the channel's timing parameters.
func (c *Channel) Params() Params { return c.p }

func (c *Channel) bankAt(chip, b int) *bank { return &c.banks[chip*c.perChip+b] }

// Classify reports what outcome an access to (chip, bank, row) would see
// right now, without changing any state. Schedulers use this for hit-first
// prioritization and Peek-based dispatch decisions.
func (c *Channel) Classify(chip, b int, row uint64) Outcome {
	bk := c.bankAt(chip, b)
	switch {
	case bk.openRow == int64(row):
		return Hit
	case bk.openRow < 0:
		return Closed
	default:
		return Conflict
	}
}

// BankReadyAt returns the cycle at which the bank can accept its next
// operation.
func (c *Channel) BankReadyAt(chip, b int) uint64 { return c.bankAt(chip, b).readyAt }

// BusFreeAt returns the cycle the data bus becomes free.
func (c *Channel) BusFreeAt() uint64 { return c.busFreeAt }

// AccessDetail is the full timing breakdown of one committed access — the
// raw material for request-lifecycle tracing. The bank operates over
// [Start, Start+prep) (precharge, then activate, then column access, as the
// Outcome requires); the data bus is occupied over [DataStart, Done).
type AccessDetail struct {
	// Start is the cycle the bank begins preparing (max of the request time
	// and the bank's ready time).
	Start uint64
	// DataStart is the cycle the data transfer claims the bus.
	DataStart uint64
	// Done is the cycle the last data beat transfers.
	Done uint64
	// Outcome is the row-buffer outcome.
	Outcome Outcome
	// Turnaround is set when a bus direction-switch gap was inserted.
	Turnaround bool
}

// Access performs a full line access to (chip, bank, row) starting no
// earlier than now, committing bank and bus state. It returns the cycle at
// which the last data beat transfers and the row-buffer outcome.
//
// The service timeline is a reservation model: the bank performs whatever
// precharge/activate it needs as soon as it is free, and the data transfer
// claims the first bus slot after the column access completes. Bank
// preparation therefore overlaps other banks' transfers, which is how
// open-page multi-bank pipelining earns its keep.
func (c *Channel) Access(now uint64, chip, b int, row uint64, isRead bool) (done uint64, out Outcome) {
	d := c.AccessFull(now, chip, b, row, isRead)
	return d.Done, d.Outcome
}

// AccessFull is Access returning the full timing breakdown.
func (c *Channel) AccessFull(now uint64, chip, b int, row uint64, isRead bool) AccessDetail {
	c.applyRefresh(now)
	bk := c.bankAt(chip, b)
	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}

	out := c.Classify(chip, b, row)
	var prep uint64
	switch out {
	case Hit:
		prep = c.p.CL
		c.Stats.Hits++
	case Closed:
		prep = c.p.TRCD + c.p.CL
		c.Stats.Closed++
	case Conflict:
		prep = c.p.TRP + c.p.TRCD + c.p.CL
		c.Stats.Conflicts++
	}
	if isRead {
		c.Stats.Reads++
	} else {
		c.Stats.Writes++
	}

	d := AccessDetail{Start: start, Outcome: out}
	dataStart := start + prep
	busFree := c.busFreeAt
	if c.p.Turnaround > 0 && c.Stats.Reads+c.Stats.Writes > 1 && c.lastWasWrite == isRead {
		// Direction switch: the bus needs a turnaround gap.
		busFree += c.p.Turnaround
		c.Stats.Turnarounds++
		d.Turnaround = true
	}
	if busFree > dataStart {
		dataStart = busFree
	}
	done := dataStart + c.p.Burst
	c.lastWasWrite = !isRead
	c.busFreeAt = done
	c.Stats.BusBusy += c.p.Burst

	if c.p.Mode == OpenPage {
		bk.openRow = int64(row)
		bk.readyAt = done
	} else {
		bk.openRow = -1
		bk.readyAt = done + c.p.TRP
	}
	d.DataStart = dataStart
	d.Done = done
	return d
}

// RowBufferMissRate returns the fraction of accesses that were not row
// buffer hits (closed-bank accesses count as misses, as in the paper).
func (c *Channel) RowBufferMissRate() float64 {
	total := c.Stats.Hits + c.Stats.Closed + c.Stats.Conflicts
	if total == 0 {
		return 0
	}
	return float64(c.Stats.Closed+c.Stats.Conflicts) / float64(total)
}
