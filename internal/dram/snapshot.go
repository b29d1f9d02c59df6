package dram

// The DRAM device models' snapshot walk (DESIGN §15). A Channel is pure
// timestamp state — no events, no pointers — so the walk is a flat field
// list: bank row/ready state, bus state, the refresh clock, and the outcome
// counters.

import "smtdram/internal/snap"

const sectionChannel = 0x4452414D // "DRAM"

// Snap walks the channel's mutable state. Timing parameters and the bank
// grid shape are configuration and are not in the format; a restore targets
// a channel built by NewChannel with identical arguments.
func (c *Channel) Snap(s *snap.Codec) error {
	s.Marker(sectionChannel)
	s.Fixed(len(c.banks), "banks")
	for i := range c.banks {
		s.I64(&c.banks[i].openRow)
		s.U64(&c.banks[i].readyAt)
	}
	s.U64(&c.busFreeAt)
	s.Bool(&c.lastWasWrite)
	s.U64(&c.nextRefreshAt)
	s.U64(&c.Stats.Hits)
	s.U64(&c.Stats.Closed)
	s.U64(&c.Stats.Conflicts)
	s.U64(&c.Stats.Reads)
	s.U64(&c.Stats.Writes)
	s.U64(&c.Stats.BusBusy)
	s.U64(&c.Stats.Turnarounds)
	s.U64(&c.Stats.Refreshes)
	return s.Err()
}
