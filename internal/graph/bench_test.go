package graph

import "testing"

var benchGraph *CSR

// BenchmarkRMAT times one graph of the size a graph workload's process
// builds at full data scale: 2^15 vertices, 12 edges per vertex.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = RMAT(15, 12, uint64(i))
	}
}
