package workload

// Instruction-trace record and replay.
//
// The synthetic generators stand in for SPEC binaries, but the simulator
// does not care where its instruction stream comes from: anything
// implementing the CPU's Source interface works. This file provides a
// compact binary trace format so streams can be recorded once (from the
// synthetic models, or converted from an external trace) and replayed
// deterministically — the "bring your own trace" path.
//
// Format: a 8-byte magic/version header, then one varint-encoded record per
// instruction:
//
//	kind      uvarint (Kind)
//	flags     uvarint (bit0 mispredict, bit1 taken)
//	lat       uvarint
//	dep1,dep2 uvarint
//	pcDelta   varint  (PC delta from previous instruction)
//	addr      uvarint (memory ops only)

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"smtdram/internal/mem"
)

// traceMagic identifies the trace format ("SMTDRAM1").
var traceMagic = [8]byte{'S', 'M', 'T', 'D', 'R', 'A', 'M', '1'}

// TraceWriter encodes an instruction stream.
type TraceWriter struct {
	w      *bufio.Writer
	lastPC uint64
	count  uint64
	buf    [binary.MaxVarintLen64]byte
}

// NewTraceWriter writes the header and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw}, nil
}

func (t *TraceWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

func (t *TraceWriter) varint(v int64) error {
	n := binary.PutVarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Write appends one instruction.
func (t *TraceWriter) Write(in Instr) error {
	var flags uint64
	if in.Mispredict {
		flags |= 1
	}
	if in.Taken {
		flags |= 2
	}
	if err := t.uvarint(uint64(in.Kind)); err != nil {
		return err
	}
	if err := t.uvarint(flags); err != nil {
		return err
	}
	if err := t.uvarint(uint64(in.Lat)); err != nil {
		return err
	}
	if err := t.uvarint(uint64(in.Dep1)); err != nil {
		return err
	}
	if err := t.uvarint(uint64(in.Dep2)); err != nil {
		return err
	}
	if err := t.varint(int64(in.PC) - int64(t.lastPC)); err != nil {
		return err
	}
	t.lastPC = in.PC
	if in.Kind == Load || in.Kind == Store {
		if err := t.uvarint(in.Addr); err != nil {
			return err
		}
	}
	t.count++
	return nil
}

// Count returns the number of instructions written.
func (t *TraceWriter) Count() uint64 { return t.count }

// Flush drains buffered output.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// Record captures n instructions of app's synthetic stream into w.
func Record(app App, threadID int, seed int64, n uint64, w io.Writer) error {
	g, err := NewGen(app, threadID, seed)
	if err != nil {
		return err
	}
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := tw.Write(g.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replay is a cpu.Source that replays a recorded trace. When the trace is
// exhausted it loops back to the first instruction (threads must be able to
// run past their target to preserve contention), with the PCs as recorded.
type Replay struct {
	ins  []Instr
	next int
}

// ErrBadTrace reports a malformed or truncated trace stream.
var ErrBadTrace = errors.New("workload: malformed trace")

// NewReplay decodes an entire trace into memory. A PC or data address must lie
// below 1<<mem.AddrBits, the end of the simulated address space.
func NewReplay(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	rep := &Replay{}
	var pc uint64
	for {
		kind, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if kind > uint64(Branch) {
			return nil, fmt.Errorf("%w: kind %d", ErrBadTrace, kind)
		}
		flags, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		lat, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		dep1, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		dep2, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		pcDelta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if lat > math.MaxUint32 || dep1 > math.MaxInt16 || dep2 > math.MaxInt16 {
			return nil, fmt.Errorf("%w: record %d: lat %d / deps %d, %d do not fit an Instr", ErrBadTrace, len(rep.ins), lat, dep1, dep2)
		}
		pc = uint64(int64(pc) + pcDelta)
		if pc >= 1<<mem.AddrBits {
			return nil, fmt.Errorf("%w: record %d: PC %#x is past the %d-bit address space", ErrBadTrace, len(rep.ins), pc, mem.AddrBits)
		}
		in := Instr{
			Kind:       Kind(kind),
			Mispredict: flags&1 != 0,
			Taken:      flags&2 != 0,
			Lat:        uint32(lat),
			Dep1:       int16(dep1),
			Dep2:       int16(dep2),
			PC:         pc,
		}
		if in.Kind == Load || in.Kind == Store {
			addr, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
			}
			if addr >= 1<<mem.AddrBits {
				return nil, fmt.Errorf("%w: record %d: address %#x is past the %d-bit address space", ErrBadTrace, len(rep.ins), addr, mem.AddrBits)
			}
			in.Addr = addr
		}
		rep.ins = append(rep.ins, in)
	}
	if len(rep.ins) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return rep, nil
}

// Len returns the trace length in instructions.
func (r *Replay) Len() int { return len(r.ins) }

// Next implements the CPU's instruction source, looping at end of trace.
func (r *Replay) Next() Instr {
	in := r.ins[r.next]
	r.next++
	if r.next == len(r.ins) {
		r.next = 0
	}
	return in
}
