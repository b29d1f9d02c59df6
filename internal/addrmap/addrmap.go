// Package addrmap implements the DRAM address mapping schemes evaluated in
// the paper: page-interleaved mapping (DRAM pages assigned round-robin to
// banks) and the XOR/permutation-based mapping of Zhang, Zhu and Zhang that
// spreads row-buffer conflicts by XORing the bank index with low row-address
// bits. It also models channel ganging: clustering several physical channels
// into one wider logical channel.
package addrmap

import (
	"fmt"
	"strings"
)

// Scheme selects how physical addresses are permuted onto DRAM banks.
type Scheme int

const (
	// Page assigns consecutive DRAM pages to banks round-robin ("page
	// mapping" in the paper).
	Page Scheme = iota
	// XOR permutes the bank index with low row bits (the permutation-based
	// interleaving of Zhang et al., called "XOR" in the paper).
	XOR
)

func (s Scheme) String() string {
	switch s {
	case Page:
		return "page"
	case XOR:
		return "xor"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a name as String prints it, in any letter case.
func ParseScheme(s string) (Scheme, error) {
	for _, v := range []Scheme{Page, XOR} {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("addrmap: unknown mapping scheme %q (want page or xor)", s)
}

// Geometry describes the *logical* organization of the DRAM system after
// channel ganging has been applied.
type Geometry struct {
	// Channels is the number of independent logical channels.
	Channels int
	// ChipsPerChannel is the number of independent chip groups (ranks for
	// SDRAM, individual devices for Rambus) per logical channel.
	ChipsPerChannel int
	// BanksPerChip is the number of independent banks inside a chip group.
	BanksPerChip int
	// PageBytes is the row-buffer (DRAM page) size in bytes.
	PageBytes int
	// LineBytes is the transfer granularity (the L3 line size).
	LineBytes int
}

// TotalBanks is the number of independent banks across the whole system.
func (g Geometry) TotalBanks() int { return g.Channels * g.ChipsPerChannel * g.BanksPerChip }

// Validate reports a descriptive error for malformed geometries. All fields
// must be positive; PageBytes must be a multiple of LineBytes; counts must be
// powers of two so the XOR permutation stays bijective.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.ChipsPerChannel <= 0, g.BanksPerChip <= 0:
		return fmt.Errorf("addrmap: non-positive geometry %+v", g)
	case g.PageBytes <= 0 || g.LineBytes <= 0:
		return fmt.Errorf("addrmap: non-positive page/line size %+v", g)
	case g.PageBytes%g.LineBytes != 0:
		return fmt.Errorf("addrmap: page size %d not a multiple of line size %d", g.PageBytes, g.LineBytes)
	}
	for _, v := range []int{g.Channels, g.ChipsPerChannel, g.BanksPerChip, g.PageBytes, g.LineBytes} {
		if v&(v-1) != 0 {
			return fmt.Errorf("addrmap: geometry value %d is not a power of two (%+v)", v, g)
		}
	}
	return nil
}

// Loc is a fully decoded DRAM location.
type Loc struct {
	Channel int
	Chip    int
	Bank    int
	Row     uint64
	// Col is the line-sized column index within the row.
	Col int
}

// BankID flattens (channel, chip, bank) into a system-wide bank index,
// channel-major so that consecutive pages under Page mapping alternate
// channels first (maximizing channel-level parallelism, the organization the
// paper's multi-channel results assume).
func (g Geometry) BankID(l Loc) int {
	return (l.Bank*g.ChipsPerChannel+l.Chip)*g.Channels + l.Channel
}

// locFromBankID is the inverse of BankID.
func (g Geometry) locFromBankID(id int) Loc {
	ch := id % g.Channels
	id /= g.Channels
	chip := id % g.ChipsPerChannel
	bank := id / g.ChipsPerChannel
	return Loc{Channel: ch, Chip: chip, Bank: bank}
}

// Mapper translates physical line addresses into DRAM locations under a
// given scheme.
type Mapper struct {
	Geo    Geometry
	Scheme Scheme

	// failed is 1 + the index of a hard-failed channel, or 0 when the
	// system is healthy (so the zero Mapper is undegraded). In degraded
	// mode Map redirects the failed channel's traffic across the survivors;
	// see WithoutChannel.
	failed int
}

// NewMapper validates the geometry and returns a Mapper.
func NewMapper(g Geometry, s Scheme) (Mapper, error) {
	if err := g.Validate(); err != nil {
		return Mapper{}, err
	}
	return Mapper{Geo: g, Scheme: s}, nil
}

// Validate checks the mapper's geometry and (when degraded) that the failed
// channel is in range and leaves at least one survivor.
func (m Mapper) Validate() error {
	if err := m.Geo.Validate(); err != nil {
		return err
	}
	if m.failed != 0 {
		ch := m.failed - 1
		if ch < 0 || ch >= m.Geo.Channels {
			return fmt.Errorf("addrmap: failed channel %d out of range (%d channels)", ch, m.Geo.Channels)
		}
		if m.Geo.Channels < 2 {
			return fmt.Errorf("addrmap: cannot degrade a %d-channel system (no failover target)", m.Geo.Channels)
		}
	}
	return nil
}

// FailedChannel returns the hard-failed channel index, or -1 when healthy.
func (m Mapper) FailedChannel() int { return m.failed - 1 }

// WithoutChannel returns a degraded copy of the mapper in which traffic that
// would decode to channel ch fails over to the surviving channels. The
// redirect is a pure function of the decoded location (no state), so the
// degraded mapping is deterministic, and it spreads a failed channel's rows
// across every survivor rather than doubling up one neighbour: survivor
// index = (row + bank + chip) mod (channels-1), skipping ch.
//
// The degraded mapping is intentionally not a bijection on the surviving
// banks — two addresses may now share a bank — which is exactly the
// capacity/conflict cost a real interleaved system pays after mapping out a
// channel. Unmap stays defined only for the healthy mapping.
func (m Mapper) WithoutChannel(ch int) (Mapper, error) {
	if ch < 0 || ch >= m.Geo.Channels {
		return Mapper{}, fmt.Errorf("addrmap: failed channel %d out of range (%d channels)", ch, m.Geo.Channels)
	}
	if m.Geo.Channels < 2 {
		return Mapper{}, fmt.Errorf("addrmap: cannot degrade a %d-channel system (no failover target)", m.Geo.Channels)
	}
	if m.failed != 0 {
		return Mapper{}, fmt.Errorf("addrmap: channel %d already failed (multi-channel failure is not modeled)", m.failed-1)
	}
	m.failed = ch + 1
	return m, nil
}

// Map decodes a physical byte address. Addresses are first split into
// (pageIndex, column); the page index is then distributed over banks
// according to the scheme.
func (m Mapper) Map(addr uint64) Loc {
	g := m.Geo
	page := addr / uint64(g.PageBytes)
	col := int(addr%uint64(g.PageBytes)) / g.LineBytes

	banks := uint64(g.TotalBanks())
	bank := page % banks
	row := page / banks
	if m.Scheme == XOR {
		// Permutation-based interleaving: XOR the bank index with the low
		// bits of the row address. For any fixed row this is a bijection on
		// bank indices, so no two distinct addresses collide.
		bank ^= row % banks
	}
	loc := g.locFromBankID(int(bank))
	loc.Row = row
	loc.Col = col
	if m.failed != 0 && loc.Channel == m.failed-1 {
		loc.Channel = m.failover(loc)
	}
	return loc
}

// failover picks the surviving channel for a location that decoded to the
// failed channel.
func (m Mapper) failover(l Loc) int {
	survivors := m.Geo.Channels - 1
	idx := int((l.Row + uint64(l.Bank) + uint64(l.Chip)) % uint64(survivors))
	if idx >= m.failed-1 {
		idx++ // skip the dead channel
	}
	return idx
}

// Unmap is the exact inverse of Map; it exists so tests can prove the
// mapping is a bijection.
func (m Mapper) Unmap(l Loc) uint64 {
	g := m.Geo
	banks := uint64(g.TotalBanks())
	bank := uint64(g.BankID(Loc{Channel: l.Channel, Chip: l.Chip, Bank: l.Bank}))
	if m.Scheme == XOR {
		bank ^= l.Row % banks
	}
	page := l.Row*banks + bank
	return page*uint64(g.PageBytes) + uint64(l.Col*g.LineBytes)
}

// Gang reorganizes physCh physical channels of width physWidthBytes into
// physCh/gang logical channels of width physWidthBytes*gang. Ganged channels
// operate in lockstep, so the chips behind them count once: the number of
// independent banks per logical channel is unchanged, which is exactly why
// ganging hurts concurrency in the paper's Figure 7.
//
// It returns the logical channel count and logical channel width in bytes.
func Gang(physCh, gang, physWidthBytes int) (logicalCh, widthBytes int, err error) {
	if physCh <= 0 || gang <= 0 || physWidthBytes <= 0 {
		return 0, 0, fmt.Errorf("addrmap: non-positive gang parameters (%d, %d, %d)", physCh, gang, physWidthBytes)
	}
	if physCh%gang != 0 {
		return 0, 0, fmt.Errorf("addrmap: %d physical channels not divisible by gang degree %d", physCh, gang)
	}
	return physCh / gang, physWidthBytes * gang, nil
}
