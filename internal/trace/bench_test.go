package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"ndpext/internal/workloads"
)

// benchTrace is a realistic mix: mostly small strides with occasional
// jumps, ~1M accesses over 8 cores.
func benchTrace(b *testing.B) *workloads.Trace {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	tr := &workloads.Trace{Name: "bench", PerCore: make([][]workloads.Access, 8)}
	for c := range tr.PerCore {
		accs := make([]workloads.Access, 128*1024)
		addr := uint64(c) << 30
		for i := range accs {
			if rng.Intn(64) == 0 {
				addr = uint64(rng.Intn(1<<34)) &^ 63
			} else {
				addr += 64
			}
			accs[i] = workloads.Access{Addr: addr, Write: rng.Intn(4) == 0, Gap: uint8(rng.Intn(32))}
		}
		tr.PerCore[c] = accs
	}
	return tr
}

// BenchmarkEncode measures raw (uncompressed) encode throughput in
// accesses/s — the recording overhead ceiling for -record runs.
func BenchmarkEncode(b *testing.B) {
	tr := benchTrace(b)
	total := tr.TotalAccesses()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, tr, 0, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAccessRate(b, total)
	b.ReportMetric(float64(buf.Len())/float64(total), "bytes/access")
}

// BenchmarkEncodeFlate is the compressed variant: the size/speed
// tradeoff documented in DESIGN.md.
func BenchmarkEncodeFlate(b *testing.B) {
	tr := benchTrace(b)
	total := tr.TotalAccesses()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, tr, 0, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAccessRate(b, total)
	b.ReportMetric(float64(buf.Len())/float64(total), "bytes/access")
}

// BenchmarkWriteTrace times the record step of a generated trace:
// recsys at 128 cores and 4000 accesses per core, written as SaveFile
// writes it (default chunking, flate on).
func BenchmarkWriteTrace(b *testing.B) {
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 4000
	tr, err := workloads.Recsys(128, 1, sc)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, tr, 0, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAccessRate(b, tr.TotalAccesses())
}

// BenchmarkDecode measures streaming decode throughput in accesses/s —
// the replay feed rate; the acceptance floor is 10M accesses/s.
func BenchmarkDecode(b *testing.B) {
	tr := benchTrace(b)
	total := tr.TotalAccesses()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, 0, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			b.Fatal(err)
		}
		src, err := r.Source()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for c := 0; c < src.Cores(); c++ {
			for {
				if _, ok := src.Next(c); !ok {
					break
				}
				n++
			}
		}
		if n != total {
			b.Fatalf("decoded %d of %d accesses", n, total)
		}
	}
	b.StopTimer()
	reportAccessRate(b, total)
}

// BenchmarkDecodeFlate is the compressed decode path.
func BenchmarkDecodeFlate(b *testing.B) {
	tr := benchTrace(b)
	total := tr.TotalAccesses()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, 0, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			b.Fatal(err)
		}
		src, err := r.Source()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for c := 0; c < src.Cores(); c++ {
			for {
				if _, ok := src.Next(c); !ok {
					break
				}
				n++
			}
		}
		if n != total {
			b.Fatalf("decoded %d of %d accesses", n, total)
		}
	}
	b.StopTimer()
	reportAccessRate(b, total)
}

func reportAccessRate(b *testing.B, perOp int) {
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(perOp)*float64(b.N)/secs/1e6, "Maccesses/s")
	}
}
