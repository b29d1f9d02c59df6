package snap

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// walked is one of everything a Codec can walk.
type walked struct {
	B     uint8
	U     uint64
	I     int64
	N     int
	Flag  bool
	S     string
	Hist  [3]uint64
	Reg   [4]uint64
	Small int16
	Wide  uint32
	List  []uint64
	R     *Ref
}

func (v *walked) snap(c *Codec) {
	c.Marker(0xC0DEC)
	c.U8(&v.B)
	c.U64(&v.U)
	c.I64(&v.I)
	c.Int(&v.N)
	c.Bool(&v.Flag)
	c.String(&v.S)
	c.U64s(v.Hist[:])
	c.Words(v.Reg[:])
	I64As(c, &v.Small)
	U64As(c, &v.Wide)
	c.Fixed(len(v.Hist), "buckets")
	Slice(c, &v.List, c.U64)
	c.Ref(&v.R)
}

func sample() walked {
	return walked{
		B: 7, U: 1 << 40, I: -12345, N: -3, Flag: true, S: "prefix",
		Hist: [3]uint64{1, 0, 1 << 63}, Reg: [4]uint64{^uint64(0), 2, 3, 4},
		Small: -32768, Wide: 1 << 31, List: []uint64{9, 8, 7},
		R: &Ref{Kind: KMemEntry, Args: []uint64{1, 2}, Inner: &Ref{Kind: KMemBackendReq, Args: []uint64{}}},
	}
}

func loading(t *testing.T, w *Writer) (*Codec, *Reader) {
	t.Helper()
	r, err := NewReader(w.Frame("CDCT", 1), "CDCT", 1)
	if err != nil {
		t.Fatal(err)
	}
	return Loading(r), r
}

// One walk is both directions: what Saving wrote, Loading assigns, and the
// bytes are exactly what the same sequence of Writer calls produces.
func TestCodecRoundTrip(t *testing.T) {
	want := sample()
	var w Writer
	c := Saving(&w)
	if want.snap(c); c.Err() != nil || c.Loading() {
		t.Fatalf("saving walk: err %v, Loading() %v", c.Err(), c.Loading())
	}

	var direct Writer
	direct.Marker(0xC0DEC)
	direct.U8(7)
	direct.U64(1 << 40)
	direct.I64(-12345)
	direct.I64(-3)
	direct.Bool(true)
	direct.String("prefix")
	for _, x := range want.Hist {
		direct.U64(x)
	}
	direct.Bytes([]byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
	})
	direct.I64(-32768)
	direct.U64(1 << 31)
	direct.U64(3)
	direct.U64(3)
	for _, x := range want.List {
		direct.U64(x)
	}
	direct.Ref(want.R)
	if !bytes.Equal(w.buf, direct.buf) {
		t.Fatalf("codec bytes differ from the Writer's\n got %x\nwant %x", w.buf, direct.buf)
	}

	got := walked{List: make([]uint64, 1, 8)}
	c, r := loading(t, &w)
	got.snap(c)
	if r.Done(); c.Err() != nil || !c.Loading() {
		t.Fatalf("loading walk: err %v, Loading() %v", c.Err(), c.Loading())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the state\n got %+v\nwant %+v", got, want)
	}
	if cap(got.List) != 8 {
		t.Fatalf("Slice reallocated a buffer that had room: cap %d", cap(got.List))
	}
}

// A count is bounded by the payload left before anything is sized by it.
func TestCodecLenBoundsCount(t *testing.T) {
	var w Writer
	w.U64(1 << 62)
	w.U64(5)
	c, _ := loading(t, &w)
	var list []uint64
	Slice(c, &list, c.U64)
	if !errors.Is(c.Err(), ErrTruncated) || list != nil {
		t.Fatalf("count 1<<62: err %v, list %v; want ErrTruncated and nothing allocated", c.Err(), list)
	}
	if n := c.Len(0); n != 0 {
		t.Fatalf("Len after a failure = %d, want 0", n)
	}

	// The largest honest count: one byte an element.
	var ok Writer
	ok.U64(3)
	ok.U64(1)
	ok.U64(2)
	ok.U64(3)
	c, _ = loading(t, &ok)
	if n := c.Len(0); n != 3 || c.Err() != nil {
		t.Fatalf("Len = %d, %v; want 3", n, c.Err())
	}
}

// Slice drops the element that failed and stops.
func TestCodecSliceStopsAtFailure(t *testing.T) {
	var w Writer
	w.U64(3) // three pairs claimed, one and a half present
	w.U64(10)
	w.U64(11)
	w.U64(12)
	c, _ := loading(t, &w)
	var list [][2]uint64
	calls := 0
	Slice(c, &list, func(p *[2]uint64) {
		calls++
		c.U64(&p[0])
		c.U64(&p[1])
	})
	if !errors.Is(c.Err(), ErrTruncated) || !reflect.DeepEqual(list, [][2]uint64{{10, 11}}) || calls != 2 {
		t.Fatalf("err %v, list %v after %d calls; want ErrTruncated, [[10 11]], 2", c.Err(), list, calls)
	}
}

func TestCodecFixedAndWordsRejectAnotherShape(t *testing.T) {
	var w Writer
	w.U64(4)
	c, _ := loading(t, &w)
	if c.Fixed(3, "banks"); !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("Fixed(3) over a frame saying 4: %v, want ErrCorrupt", c.Err())
	}

	var short Writer
	short.Bytes(make([]byte, 24))
	c, _ = loading(t, &short)
	reg := [4]uint64{1, 2, 3, 4}
	if c.Words(reg[:]); !errors.Is(c.Err(), ErrCorrupt) || reg != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("Words over a 24-byte field: %v, register %v; want ErrCorrupt and the register untouched", c.Err(), reg)
	}

	var cut Writer
	cut.U64(32)
	cut.U64(0)
	c, _ = loading(t, &cut)
	if c.Words(reg[:]); !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("Words over a cut field: %v, want ErrTruncated", c.Err())
	}
}

// The first failure is the walk's outcome in both directions, and a failed
// loading walk assigns zeros from then on.
func TestCodecFailureIsSticky(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	c := Saving(&Writer{})
	c.Fail(first)
	c.Fail(second)
	if c.Err() != first {
		t.Fatalf("saving: Err = %v, want the first failure", c.Err())
	}

	var w Writer
	w.U64(42)
	w.U64(43)
	c, r := loading(t, &w)
	var a, b uint64
	c.U64(&a)
	c.Fail(first)
	b = 99
	c.U64(&b)
	c.Fail(second)
	if a != 42 || b != 0 || c.Err() != first || r.Err() != first {
		t.Fatalf("loading: a=%d b=%d err=%v reader err=%v; want 42, 0 and the first failure in both", a, b, c.Err(), r.Err())
	}
}
