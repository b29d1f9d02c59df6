package core

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"smtdram/internal/dram"
	"smtdram/internal/memctrl"
	"smtdram/internal/obs"
	"smtdram/internal/workload"
)

// The DRAM command oracle: an independent check of every access a run makes,
// read from the request-lifecycle trace alone. Its constraint table is written
// from the paper's Table 1 in nanoseconds; nothing here reads dram.Params or
// calls into internal/dram's timing, so a wrong timing in the model cannot
// agree with itself. The request's own windows (precharge, activate, CAS) are
// derived in memctrl from the same Params the device uses, so they agree by
// construction; the rows that can catch a model bug are the ones between
// requests — the bus, the bank, the row-state machine, refresh — and the
// transfer length. DESIGN §7 lists which rows each known model bug turns red.

var oracleFull = flag.Bool("oracle-full", false, "run the DRAM command oracle over the full 144-config matrix")

// The oracle's rows, as its failures name them.
const (
	rowPreToAct   = "pre→act ≥ tRP"
	rowActToCAS   = "act→CAS ≥ tRCD"
	rowCASToData  = "CAS→data ≥ CL"
	rowBurst      = "a transfer lasts one burst"
	rowOverlap    = "transfers on a channel never overlap"
	rowTurnaround = "a direction switch leaves ≥ turnaround"
	rowCASToCAS   = "same-bank CAS→CAS ≥ burst"
	rowReadToPre  = "same-bank read→pre ≥ burst"
	rowClosePage  = "close page: next access closed, act ≥ tRP after auto-precharge"
	rowOutcome    = "outcome and commands = the row-state machine's"
	rowRefresh    = "no bank command inside the bank's refresh window"
)

// The advisory rows: parameters the model does not have and Table 1 does not
// give. The oracle counts how often the model is faster than they allow and
// fails on none of them.
const (
	rowTRAS = "act→pre ≥ tRAS"
	rowTWR  = "write→pre ≥ tWR"
)

// datasheet holds a part's timings that Table 1 leaves out, in ns; 0 where the
// part has no such parameter.
type datasheet struct{ tRAS, tWR, tRRD, tFAW float64 }

var (
	// DDR-400: Micron 512Mb DDR SDRAM data sheet (MT46V64M8), -5B speed grade.
	ddr400 = datasheet{
		tRAS: 40, // ACTIVE to PRECHARGE, minimum
		tWR:  15, // write recovery: end of write data to PRECHARGE
		tRRD: 10, // ACTIVE bank a to ACTIVE bank b
		tFAW: 0,  // none: DDR SDRAM has no four-activate window (DDR2 added it)
	}
	// PC800: Rambus Direct RDRAM 128/144-Mbit data sheet, tCYCLE 2.5 ns.
	pc800 = datasheet{
		tRAS: 50, // tRAS, ACT to PRER minimum: 20 tCYCLE
		tWR:  0,  // none: a write retires from the device's write buffer, and the sheet states no write-to-precharge bound
		tRRD: 20, // tRR, ACT to ACT on different banks: 8 tCYCLE
		tFAW: 0,  // none: Direct RDRAM has no four-activate window
	}
)

// oracleTable is the command constraint table of one memory configuration,
// in CPU cycles, shaped like a controller's timing.{channel,bank} tables.
type oracleTable struct {
	channel struct {
		burst      uint64 // a 64-byte line's data transfer
		turnaround uint64 // extra bus idle on a read↔write switch
		refi, rfc  uint64 // all-bank refresh period and duration (0: no refresh)
	}
	bank struct {
		preToAct, actToCAS, casToData uint64 // tRP, tRCD, CL
		casToCAS, readToPre           uint64
		actToPre, writeToPre          uint64 // tRAS, tWR: advisory, 0 where the part has none
	}
	closePage bool
}

// tableFor writes m's table from Table 1: a 3 GHz core; 15 ns row, column and
// precharge times; DDR channels 16 bytes wide at 200 MHz double data rate
// (0.4 transfers/ns), ganged channels proportionally wider; Direct Rambus 2
// bytes wide at 800 MT/s. Refresh, which Table 1 does not model, is DDR's
// 7.8 µs tREFI and 70 ns tRFC. tRAS and tWR come from the part's data sheet.
func tableFor(m MemConfig) oracleTable {
	cycles := func(ns float64) uint64 { return uint64(ns*3 + 0.5) }
	var t oracleTable
	t.bank.preToAct, t.bank.actToCAS, t.bank.casToData = cycles(15), cycles(15), cycles(15)
	ds := ddr400
	switch m.Kind {
	case DDR:
		t.channel.burst = cycles(64 / (16 * float64(m.Gang) * 0.4))
	case RDRAM:
		t.channel.burst = cycles(64 / (2 * 0.8))
		ds = pc800
	}
	t.bank.actToPre, t.bank.writeToPre = cycles(ds.tRAS), cycles(ds.tWR)
	t.bank.casToCAS, t.bank.readToPre = t.channel.burst, t.channel.burst
	t.channel.turnaround = cycles(float64(m.TurnaroundNS))
	if m.Refresh {
		t.channel.refi, t.channel.rfc = cycles(7800), cycles(70)
	}
	t.closePage = m.PageMode == dram.ClosePage
	return t
}

// access is one dispatched DRAM access as the trace records it: the KIssue
// instant, then the bank commands its outcome required and the transfer.
type access struct {
	issue         obs.Event
	pre, act, cas *obs.Event
	data          *obs.Event
}

// first is the access's first bank command.
func (a *access) first() uint64 {
	switch {
	case a.pre != nil:
		return a.pre.At
	case a.act != nil:
		return a.act.At
	}
	return a.cas.At
}

type oracleBank struct {
	openRow   int64   // -1: precharged
	last      *access // the bank's previous access, nil before its first
	refreshed uint64  // end of the bank's last refresh window
	// The open row's activate and the end of its last write's data (0: none
	// since the activate): the advisory rows' starting points.
	actAt, writeEnd uint64
}

type oracleChannel struct {
	banks       map[[2]int]*oracleBank // by (chip, bank)
	lastData    *obs.Event
	lastRead    bool
	nextRefresh uint64
}

// oracle replays a run's accesses against a table. checked counts each row's
// checks and violations its failures, with the first example of each; faster
// counts the advisory rows' precharges that came sooner than they allow.
type oracle struct {
	tab        oracleTable
	channels   map[int]*oracleChannel
	checked    map[string]int
	violations map[string]int
	example    map[string]string
	faster     map[string]int
}

func newOracle(tab oracleTable) *oracle {
	return &oracle{tab: tab, channels: map[int]*oracleChannel{},
		checked: map[string]int{}, violations: map[string]int{}, example: map[string]string{}, faster: map[string]int{}}
}

// advise records one evaluation of advisory row.
func (o *oracle) advise(row string, ok bool) {
	o.checked[row]++
	if !ok {
		o.faster[row]++
	}
}

// closedAt checks the advisory rows for a precharge of bank b at pre: no
// sooner than tRAS after the activate that opened its row, nor than tWR
// after the end of the last write to that row.
func (o *oracle) closedAt(b *oracleBank, pre uint64) {
	if t := o.tab.bank.actToPre; t > 0 {
		o.advise(rowTRAS, pre >= b.actAt+t)
	}
	if t := o.tab.bank.writeToPre; t > 0 && b.writeEnd > 0 {
		o.advise(rowTWR, pre >= b.writeEnd+t)
	}
}

// check records one evaluation of row.
func (o *oracle) check(row string, ok bool, a *access, format string, args ...any) {
	o.checked[row]++
	if ok {
		return
	}
	if o.violations[row]++; o.violations[row] == 1 {
		e := a.issue
		o.example[row] = fmt.Sprintf("req %d (ch %d chip %d bank %d row %d, issued %d): %s",
			e.ReqID, e.Channel, e.Chip, e.Bank, e.Row, e.At, fmt.Sprintf(format, args...))
	}
}

// run checks every access in events, which is one run's trace in emission
// order: each access's KIssue and phase events are emitted together, at
// dispatch, so the accesses of a channel arrive in the order its banks and
// bus serve them.
func (o *oracle) run(events []obs.Event) {
	var a *access
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case obs.KIssue:
			if a != nil {
				o.access(a)
			}
			a = &access{issue: *e}
		case obs.KPrecharge:
			a.pre = e
		case obs.KActivate:
			a.act = e
		case obs.KCAS:
			a.cas = e
		case obs.KData:
			a.data = e
		}
	}
	if a != nil {
		o.access(a)
	}
}

func (o *oracle) channel(id int) *oracleChannel {
	ch := o.channels[id]
	if ch == nil {
		ch = &oracleChannel{banks: map[[2]int]*oracleBank{}, nextRefresh: o.tab.channel.refi}
		o.channels[id] = ch
	}
	return ch
}

// refresh applies the all-bank refreshes due by now: each closes every row,
// and occupies each bank for tRFC from the boundary or, when the bank is
// still serving an access then, from when that access's precharge completes.
func (o *oracle) refresh(ch *oracleChannel, now uint64) {
	tab := &o.tab
	for tab.channel.refi > 0 && ch.nextRefresh <= now {
		for _, b := range ch.banks {
			start := max(ch.nextRefresh, b.refreshed)
			if b.last != nil {
				start = max(start, b.last.cas.At+tab.bank.readToPre+tab.bank.preToAct)
			}
			b.openRow, b.refreshed = -1, start+tab.channel.rfc
		}
		ch.nextRefresh += tab.channel.refi
	}
}

func (o *oracle) access(a *access) {
	tab := &o.tab
	e := a.issue
	if a.cas == nil || a.data == nil {
		o.check(rowOutcome, false, a, "no CAS or no transfer")
		return
	}
	ch := o.channel(e.Channel)
	o.refresh(ch, e.At)
	b := ch.banks[[2]int{e.Chip, e.Bank}]
	if b == nil {
		// A bank first touched now was idle at every refresh so far.
		b = &oracleBank{openRow: -1}
		if last := ch.nextRefresh - tab.channel.refi; tab.channel.refi > 0 && last > 0 {
			b.refreshed = last + tab.channel.rfc
		}
		ch.banks[[2]int{e.Chip, e.Bank}] = b
	}

	// The row-state machine says what the access finds, and so which
	// commands it needs.
	want := "conflict"
	switch b.openRow {
	case int64(e.Row):
		want = "hit"
	case -1:
		want = "closed"
	}
	o.check(rowOutcome, e.Outcome == want && (a.pre != nil) == (want == "conflict") && (a.act != nil) == (want != "hit"),
		a, "outcome %s with precharge %v, activate %v; the row-state machine says %s", e.Outcome, a.pre != nil, a.act != nil, want)

	// The access's own commands.
	if a.pre != nil && a.act != nil {
		o.check(rowPreToAct, a.act.At >= a.pre.At+tab.bank.preToAct, a, "precharge %d, activate %d", a.pre.At, a.act.At)
	}
	if a.act != nil {
		o.check(rowActToCAS, a.cas.At >= a.act.At+tab.bank.actToCAS, a, "activate %d, CAS %d", a.act.At, a.cas.At)
	}
	o.check(rowCASToData, a.data.At >= a.cas.At+tab.bank.casToData, a, "CAS %d, data %d", a.cas.At, a.data.At)
	o.check(rowBurst, a.data.End-a.data.At == tab.channel.burst, a, "transfer [%d, %d), burst %d", a.data.At, a.data.End, tab.channel.burst)

	// The channel's data bus.
	if p := ch.lastData; p != nil {
		o.check(rowOverlap, a.data.At >= p.End, a, "transfer at %d, the previous one ends at %d", a.data.At, p.End)
		if ch.lastRead != e.Read {
			o.check(rowTurnaround, a.data.At >= p.End+tab.channel.turnaround, a,
				"transfer at %d after the opposite direction's ending %d, turnaround %d", a.data.At, p.End, tab.channel.turnaround)
		}
	}
	ch.lastData, ch.lastRead = a.data, e.Read

	// The advisory rows, at each precharge the trace shows: a conflict's.
	// Close page's auto-precharge is not in the trace, but it ended tRP
	// before this access's activate, which bounds when it began.
	switch {
	case a.pre != nil:
		o.closedAt(b, a.pre.At)
	case tab.closePage && b.last != nil && a.act != nil:
		o.closedAt(b, a.act.At-tab.bank.preToAct)
	}

	// The bank, against its previous access and its refreshes.
	if p := b.last; p != nil {
		o.check(rowCASToCAS, a.cas.At >= p.cas.At+tab.bank.casToCAS, a, "CAS %d, the bank's previous CAS %d", a.cas.At, p.cas.At)
		if a.pre != nil && p.issue.Read {
			o.check(rowReadToPre, a.pre.At >= p.cas.At+tab.bank.readToPre, a, "precharge %d, the bank's previous read CAS %d", a.pre.At, p.cas.At)
		}
		if tab.closePage {
			autoPre := p.cas.At + tab.bank.readToPre
			o.check(rowClosePage, e.Outcome == "closed" && a.act != nil && a.act.At >= autoPre+tab.bank.preToAct, a,
				"outcome %s, activate after the auto-precharge at %d", e.Outcome, autoPre)
		}
	}
	if b.refreshed > 0 {
		o.check(rowRefresh, a.first() >= b.refreshed, a, "first command %d, the bank's refresh ends %d", a.first(), b.refreshed)
	}
	b.last = a
	if a.act != nil {
		b.actAt, b.writeEnd = a.act.At, 0
	}
	if !e.Read {
		b.writeEnd = a.data.End
	}
	if b.openRow = int64(e.Row); tab.closePage {
		b.openRow = -1
	}
}

// oracleConfig is one point of the oracle's matrix.
type oracleConfig struct {
	mix     string
	kind    DRAMKind
	page    dram.PageMode
	variant string // "plain", "refresh" or "turnaround"
	policy  memctrl.Policy
}

func (c oracleConfig) String() string {
	return fmt.Sprintf("%s/%v/%v/%s/%v", c.mix, c.kind, c.page, c.variant, c.policy)
}

// oracleMatrix is mixes × {DDR, RDRAM} × {open, close} × {plain, Refresh,
// TurnaroundNS=5}, each point under the schedulers pick returns for it.
func oracleMatrix(mixes []string, pick func(point int) []memctrl.Policy) []oracleConfig {
	var out []oracleConfig
	point := 0
	for _, mix := range mixes {
		for _, kind := range []DRAMKind{DDR, RDRAM} {
			for _, page := range []dram.PageMode{dram.OpenPage, dram.ClosePage} {
				for _, variant := range []string{"plain", "refresh", "turnaround"} {
					for _, policy := range pick(point) {
						out = append(out, oracleConfig{mix, kind, page, variant, policy})
					}
					point++
				}
			}
		}
	}
	return out
}

var oraclePolicies = []memctrl.Policy{memctrl.FCFS, memctrl.HitFirst, memctrl.RequestBased}

// oracleConfigs is the full 144-config matrix — {2-MEM, 4-MIX, 4-MEM, 8-MEM}
// under all three schedulers — or tier-1's 24 of it: 4-MIX and 8-MEM (whose
// writebacks exercise the turnaround row), each point under one scheduler in a
// rotation that gives every variant every scheduler.
func oracleConfigs(full bool) []oracleConfig {
	if full {
		return oracleMatrix([]string{"2-MEM", "4-MIX", "4-MEM", "8-MEM"}, func(int) []memctrl.Policy { return oraclePolicies })
	}
	return oracleMatrix([]string{"4-MIX", "8-MEM"}, func(p int) []memctrl.Policy {
		i := (p + p/3) % 3 // p%3 is the variant; p/3 steps the rest
		return oraclePolicies[i : i+1]
	})
}

// runOracle simulates c at 5k warmup and 15k target instructions a thread
// with the lifecycle tracer attached, and replays its trace.
func runOracle(t *testing.T, c oracleConfig) *oracle {
	t.Helper()
	m, err := workload.MixByName(c.mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m.Apps...)
	cfg.WarmupInstr, cfg.TargetInstr = 5_000, 15_000
	cfg.Mem.Kind, cfg.Mem.PageMode, cfg.Mem.Policy = c.kind, c.page, c.policy
	switch c.variant {
	case "refresh":
		cfg.Mem.Refresh = true
	case "turnaround":
		cfg.Mem.TurnaroundNS = 5
	}
	ob := &obs.Observer{Trace: obs.NewTracer()}
	cfg.Observe = func() *obs.Observer { return ob }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	o := newOracle(tableFor(cfg.Mem))
	o.run(ob.Trace.Events())
	return o
}

// TestDRAMCommandOracle runs the oracle over tier-1's slice of the matrix, or
// over all of it under -oracle-full. Every row must be exercised somewhere
// and violated nowhere.
func TestDRAMCommandOracle(t *testing.T) {
	configs := oracleConfigs(*oracleFull)
	checked := make([]map[string]int, len(configs))
	faster := make([]map[string]int, len(configs))
	t.Run("matrix", func(t *testing.T) {
		for i, c := range configs {
			t.Run(c.String(), func(t *testing.T) {
				t.Parallel()
				o := runOracle(t, c)
				checked[i], faster[i] = o.checked, o.faster
				var rows []string
				for row := range o.violations {
					rows = append(rows, row)
				}
				sort.Strings(rows)
				for _, row := range rows {
					t.Errorf("%s: %d violations, first: %s", row, o.violations[row], o.example[row])
				}
			})
		}
	})
	total, fast := map[string]int{}, map[string]int{}
	for i, m := range checked {
		for row, n := range m {
			total[row] += n
		}
		for row, n := range faster[i] {
			fast[row] += n
		}
	}
	var idle []string
	for _, row := range []string{rowPreToAct, rowActToCAS, rowCASToData, rowBurst, rowOverlap, rowTurnaround,
		rowCASToCAS, rowReadToPre, rowClosePage, rowOutcome, rowRefresh} {
		if total[row] == 0 {
			idle = append(idle, row)
		}
	}
	if len(idle) > 0 && !t.Failed() {
		t.Errorf("rows never exercised over %d configs: %s", len(configs), strings.Join(idle, "; "))
	}
	t.Logf("%d configs, checks per row: %v", len(configs), total)
	for _, row := range []string{rowTRAS, rowTWR} {
		t.Logf("advisory %s: the model is faster in %d of %d precharges (%.1f%%)",
			row, fast[row], total[row], 100*float64(fast[row])/float64(max(total[row], 1)))
	}
	t.Logf("stated, not counted (DDR-400/PC800, 0: the part has none): tRRD %g/%g ns, tFAW %g/%g ns",
		ddr400.tRRD, pc800.tRRD, ddr400.tFAW, pc800.tFAW)
}
