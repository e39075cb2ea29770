package sim

import "testing"

var zipfSink int

// BenchmarkZipfNext draws from recsys's popularity table: 16,384
// embedding rows at exponent 0.9.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipfTable(1<<14, 0.9).Sampler(NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		zipfSink += z.Next()
	}
}
