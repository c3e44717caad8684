package tuple

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTupleCodec measures the encode/decode round-trip on the shuffle's
// hot path, both the allocating Encode and the scratch-reusing AppendEncode
// every converted emit site uses.
func BenchmarkTupleCodec(b *testing.B) {
	for _, d := range []int{2, 8} {
		rng := rand.New(rand.NewSource(1))
		t := make(Tuple, d)
		for i := range t {
			t[i] = rng.Float64()
		}
		b.Run(fmt.Sprintf("encode/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Encode(t)
			}
		})
		b.Run(fmt.Sprintf("append-encode/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			var scratch []byte
			for i := 0; i < b.N; i++ {
				scratch = AppendEncode(scratch[:0], t)
			}
		})
		b.Run(fmt.Sprintf("roundtrip/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			enc := Encode(t)
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("list/n=64/d=4", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		l := make(List, 64)
		for i := range l {
			l[i] = make(Tuple, 4)
			for j := range l[i] {
				l[i][j] = rng.Float64()
			}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeColumns(4, EncodeList(l)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
