package workload

import (
	"fmt"
	"testing"
)

var sinkInstr Instr

// BenchmarkGenNext is the generator's whole per-instruction cost: about ten
// draws and the address arithmetic. CI gates it at zero allocations.
func BenchmarkGenNext(b *testing.B) {
	g := mustGen(b, "mcf", 0, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInstr = g.Next()
	}
}

// BenchmarkGenRestore decodes one generator's frame and installs it, from
// snapshots taken one and four million instructions in. CI bounds allocs/op
// and the ratio between the two depths: restore is O(state), not O(history).
func BenchmarkGenRestore(b *testing.B) {
	for _, depth := range []int{1_000_000, 4_000_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			orig := mustGen(b, "mcf", 0, 42)
			for i := 0; i < depth; i++ {
				orig.Next()
			}
			frame := genFrame(b, orig)
			g := mustGen(b, "mcf", 0, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := restoreFrame(b, g, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
