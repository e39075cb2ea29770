package workloads

import "testing"

var benchTrace *Trace

// BenchmarkGenerate times each generator at the size ndpbench and
// ndpserve build: 128 cores, 4000 accesses per core, full data scale.
func BenchmarkGenerate(b *testing.B) {
	sc := DefaultScale()
	sc.AccessesPerCore = 4000
	for _, name := range Names() {
		gen := All[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := gen(128, 1, sc)
				if err != nil {
					b.Fatal(err)
				}
				benchTrace = tr
			}
		})
	}
}
