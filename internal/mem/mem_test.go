package mem

import "testing"

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("Kind strings: %v %v", Read, Write)
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must print")
	}
}

func TestIsRead(t *testing.T) {
	r := Request{Kind: Read}
	w := Request{Kind: Write}
	if !r.IsRead() || w.IsRead() {
		t.Fatal("IsRead wrong")
	}
}

func TestThreadStateZeroValue(t *testing.T) {
	var r Request
	if r.State.ROBOccupancy != 0 || r.State.IQOccupancy != 0 {
		t.Fatal("zero request must carry zero thread state")
	}
}
