package golden

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestRunLeavesInputUnchanged: a run never mutates its input. Every case
// runs twice on one generated trace, without copying it, and both runs
// must reproduce the committed golden bytes. A run that cleared the
// input table's read-only bits (the write exception, §IV-B) would leave
// the second run with no exceptions to raise. Two profiling cases also
// run at the same time, each twice at once on one shared trace, so the
// race detector sees any write to shared input state.
func TestRunLeavesInputUnchanged(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			want := readGolden(t, c)
			tr, err := c.Trace()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 2; i++ {
				got, err := c.RunTrace(tr)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !bytes.Equal(want, got) {
					reportDrift(t, fmt.Sprintf("run %d on one trace", i), want, got)
				}
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		t.Parallel()
		type outcome struct {
			c   Case
			doc []byte
			err error
		}
		var (
			mu  sync.Mutex
			out []outcome
			wg  sync.WaitGroup
		)
		for _, c := range Cases() {
			if c.Name != "ndpext-pr" && c.Name != "ndpext-mab-phased" {
				continue
			}
			tr, err := c.Trace()
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					doc, err := c.RunTrace(tr)
					mu.Lock()
					out = append(out, outcome{c, doc, err})
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		if len(out) != 4 {
			t.Fatalf("ran %d concurrent runs, want 4", len(out))
		}
		for _, o := range out {
			if o.err != nil {
				t.Fatalf("%s: %v", o.c.Name, o.err)
			}
			if want := readGolden(t, o.c); !bytes.Equal(want, o.doc) {
				reportDrift(t, o.c.Name+" concurrent run on a shared trace", want, o.doc)
			}
		}
	})
}
