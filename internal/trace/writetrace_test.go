package trace

import (
	"bytes"
	"runtime"
	"testing"

	"ndpext/internal/workloads"
)

// streamBytes writes tr through the streaming Writer, adding every
// core's accesses in core order, as WriteTrace did before it encoded
// chunks in parallel.
func streamBytes(t *testing.T, tr *workloads.Trace, chunkAccesses int, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Options{
		Name: tr.Name, Table: tr.Table, Cores: len(tr.PerCore),
		ChunkAccesses: chunkAccesses, Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, accs := range tr.PerCore {
		for _, a := range accs {
			if err := tw.Add(c, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteTraceMatchesStreaming: WriteTrace, encoding its chunks on
// several goroutines, writes the streaming Writer's bytes exactly, with
// and without compression. 5000 accesses per core make one full chunk
// and a remainder per core at the default chunk size, and five full
// chunks and no remainder at 1000.
func TestWriteTraceMatchesStreaming(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 5000
	for _, name := range []string{"pr", "recsys", "mv"} {
		tr, err := workloads.All[name](32, 1, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkAccesses := range []int{0, 1000} {
			for _, compress := range []bool{false, true} {
				var buf bytes.Buffer
				if err := WriteTrace(&buf, tr, chunkAccesses, compress); err != nil {
					t.Fatal(err)
				}
				if want := streamBytes(t, tr, chunkAccesses, compress); !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s chunk=%d compress=%v: WriteTrace wrote %d bytes unlike the streaming writer's %d",
						name, chunkAccesses, compress, buf.Len(), len(want))
				}
			}
		}
	}
}
