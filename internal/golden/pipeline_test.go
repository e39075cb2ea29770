package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ndpext/internal/system"
	"ndpext/internal/trace"
)

// Every profiling run hands its sampler bookkeeping to an epoch worker
// goroutine over a bounded channel. TestGolden and TestGoldenRecordReplay
// run the matrix at the default P count; the tests below rerun it with
// one P, where each case's event loop and epoch worker (and every other
// case running in parallel) take turns on a single thread. The committed
// golden bytes must still come out: worker scheduling may change when
// bookkeeping runs, never what it computes.

// singleP sets GOMAXPROCS to 1 until the test and all its parallel
// subtests have finished.
func singleP(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// readGolden returns the case's committed golden document.
func readGolden(t *testing.T, c Case) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", c.Name+".json"))
	if err != nil {
		t.Fatalf("missing golden (run TestGolden -update first): %v", err)
	}
	return want
}

// TestGoldenParityPipelined runs the full pinned matrix (every design
// family, both memory technologies, the reconfiguration modes, and the
// fault scenarios) with one P against the committed golden bytes.
func TestGoldenParityPipelined(t *testing.T) {
	singleP(t)
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			want := readGolden(t, c)
			got, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				reportDrift(t, "one-P run vs golden", want, got)
			}
		})
	}
}

// TestGoldenRecordReplayPipelined records every case with one P and
// replays the recording, also with one P: the recorded run and the
// replay must both reproduce the committed golden bytes.
func TestGoldenRecordReplayPipelined(t *testing.T) {
	singleP(t)
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			want := readGolden(t, c)
			file, recorded := recordCase(t, c)
			if !bytes.Equal(want, recorded) {
				reportDrift(t, "one-P recorded run vs golden", want, recorded)
			}
			r, err := trace.NewReader(bytes.NewReader(file), int64(len(file)))
			if err != nil {
				t.Fatalf("reopen recorded trace: %v", err)
			}
			mat, err := r.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			res, err := system.Run(cfg, mat)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			replayed, err := encodeIndent(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, replayed) {
				reportDrift(t, "one-P replay vs golden", want, replayed)
			}
		})
	}
}
