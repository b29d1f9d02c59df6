package workload

// The instruction supply (DESIGN §9). A machine's generators are filled one
// block ahead on a helper goroutine, so the simulation goroutine only copies
// finished instructions out of a block. The helper lives from Start to Stop:
// one per run, however many threads. Outside that window every generator
// stands exactly where its thread's consumption does, so Gen.Snap, Generated
// and the checkpoint format see the same generator they did without a supply.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// blockLen is the handoff size. Much smaller blocks spend the gain on
// synchronisation (handoffs of 64 instructions gained nothing on the 8-ILP
// mix); 256 ran as fast as 512 there, at half the memory: a block is 8 KB of
// instructions and a 5 KB mark (13,504 bytes), two per thread: 216 KB for an
// eight-thread machine while its clock runs.
const blockLen = 256

// block is blockLen consecutive instructions of one thread and mark, the
// generator as it stood before the first of them.
type block struct {
	ins  [blockLen]Instr
	mark Gen
}

// idle holds the blocks no run is using: a run takes two per thread as its
// feeds are first read, and Stop gives them back. Nothing is dropped from it,
// so the process never holds more blocks than it once had in use at once (two
// per thread of every run live then), and a run allocates blocks only when
// more threads run at once than ever before. It is not a sync.Pool, which
// under the race detector drops a quarter of what is put into it; blocks
// would then be allocated afresh run after run, and TestPinnedCounts fails
// its B/op ceilings under -race.
var idle struct {
	sync.Mutex
	blocks []*block
}

func getBlock() *block {
	idle.Lock()
	n := len(idle.blocks)
	if n == 0 {
		idle.Unlock()
		return new(block)
	}
	b := idle.blocks[n-1]
	idle.blocks[n-1] = nil
	idle.blocks = idle.blocks[:n-1]
	idle.Unlock()
	return b
}

func putBlock(b *block) {
	idle.Lock()
	idle.blocks = append(idle.blocks, b)
	idle.Unlock()
}

// Supply feeds a machine's threads from their generators.
type Supply struct {
	feeds  []*Feed
	reqs   chan *Feed    // fills asked of the helper; nil when there is none
	exited chan struct{} // closed as the helper returns
}

// Feed is one thread's instruction source. It hands out the current block and
// keeps the other one filling; between them its generator runs ahead of what
// Next has handed out by up to two blocks.
type Feed struct {
	sup        *Supply
	g          *Gen
	cur, spare *block // nil while settled
	i          int    // instructions of cur handed out
	// pending is set while the helper fills spare. The helper owns spare and g
	// until it signals done, and leaves in panicked what its fill raised.
	pending  bool
	done     chan struct{}
	panicked *fillPanic
}

// NewSupply builds the supply over gens, one Feed each, in order. It takes no
// blocks until a Feed is first read.
func NewSupply(gens []*Gen) *Supply {
	s := &Supply{feeds: make([]*Feed, len(gens))}
	for i, g := range gens {
		s.feeds[i] = &Feed{sup: s, g: g, i: blockLen, done: make(chan struct{}, 1)}
	}
	return s
}

// Feeds returns the threads' sources, in the order of NewSupply's gens.
func (s *Supply) Feeds() []*Feed { return s.feeds }

// Start launches the helper that fills blocks ahead, in the order they are
// asked for. With fewer than two Ps there is nothing to run it on, and every
// block is filled inline when its thread reaches it.
func (s *Supply) Start() {
	if s.reqs != nil || len(s.feeds) == 0 || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	// Each feed has at most one fill outstanding, so a request never blocks.
	s.reqs, s.exited = make(chan *Feed, len(s.feeds)), make(chan struct{})
	go help(s.reqs, s.exited)
}

func help(reqs <-chan *Feed, exited chan<- struct{}) {
	defer close(exited)
	for f := range reqs {
		f.fillSpare()
	}
}

// fillSpare is the helper's fill. A panic in it is handed to the simulation
// goroutine, which raises it again when it waits for the block, as a
// fillPanic that carries the helper's stack: the simulation goroutine's own
// stack would show only its fetch, not the generator frame that failed.
func (f *Feed) fillSpare() {
	defer func() {
		if r := recover(); r != nil {
			f.panicked = &fillPanic{value: r, stack: debug.Stack()}
		}
		f.done <- struct{}{}
	}()
	f.fill(f.spare)
}

// fillPanic is a helper fill's panic as raised again on the simulation
// goroutine: what the fill raised, and the helper's stack where it did.
type fillPanic struct {
	value any
	stack []byte
}

func (p *fillPanic) Error() string {
	return fmt.Sprintf("%v\n\nraised by an instruction fill on the supply helper:\n%s", p.value, p.stack)
}

// Unwrap gives errors.As the raised value, when it is an error.
func (p *fillPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}

// Stop waits for the fills in flight, puts every generator back where its
// thread's consumption stands, returns the blocks and ends the helper. A
// settled supply, or one never started, is left as it is.
func (s *Supply) Stop() {
	for _, f := range s.feeds {
		f.settle()
	}
	if s.reqs != nil {
		close(s.reqs)
		<-s.exited
		s.reqs, s.exited = nil, nil
	}
}

// settle rewinds g to the current block's mark and replays the instructions
// of it already handed out, which were generated once already and so replay
// the same. A fill still in flight is dropped unread, and with it any panic
// it raised: a thread that never reached that block would not have had it
// filled at all on one P.
func (f *Feed) settle() {
	if f.pending {
		<-f.done
		f.pending, f.panicked = false, nil
	}
	if f.cur != nil {
		f.g.copyFrom(&f.cur.mark)
		for k := 0; k < f.i; k++ {
			f.g.Next()
		}
		putBlock(f.cur)
	}
	if f.spare != nil {
		putBlock(f.spare)
	}
	f.cur, f.spare, f.i = nil, nil, blockLen
}

// Next hands out the thread's next instruction.
func (f *Feed) Next() Instr {
	if f.i == blockLen {
		f.advance()
	}
	in := f.cur.ins[f.i]
	f.i++
	return in
}

// advance makes the other block current — waiting for the helper's fill of
// it, or filling it here if none was asked for — and asks for the spent one
// to be refilled. Only a filled block becomes current, so a fill that panics
// leaves cur, and what settle rewinds to, as they were.
func (f *Feed) advance() {
	if f.pending {
		<-f.done
		f.pending = false
		if p := f.panicked; p != nil {
			f.panicked = nil
			panic(p)
		}
	} else {
		if f.spare == nil {
			f.spare = getBlock()
		}
		f.fill(f.spare)
	}
	if f.cur == nil {
		f.cur = getBlock()
	}
	f.cur, f.spare, f.i = f.spare, f.cur, 0
	if f.sup.reqs != nil {
		f.pending = true
		f.sup.reqs <- f
	}
}

// fill is the one fill, on either goroutine: b's mark, then b's
// instructions, from where g stands.
func (f *Feed) fill(b *block) {
	b.mark.copyFrom(f.g)
	for k := range b.ins {
		b.ins[k] = f.g.Next()
	}
}

// copyFrom makes g a copy of src that owns its stream positions: a plain
// value copy would share src's, which dataAddr advances in place.
func (g *Gen) copyFrom(src *Gen) {
	pos := append(g.streamPos[:0], src.streamPos...)
	*g = *src
	g.streamPos = pos
}
