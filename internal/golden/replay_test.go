package golden

import (
	"bytes"
	"testing"

	"ndpext/internal/server/result"
	"ndpext/internal/system"
	"ndpext/internal/trace"
)

// TestGoldenRecordReplay is the trace subsystem's keystone, run over the
// full pinned matrix: recording any golden case through the probe bus
// and replaying the trace — both materialized and streamed — must
// reproduce the byte-identical canonical result document. A drift here
// means either the recorder perturbs timing (probes must be passive) or
// the format loses information (an access, its order, a gap, a stream
// annotation).
func TestGoldenRecordReplay(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			file, recorded := recordCase(t, c)
			r, err := trace.NewReader(bytes.NewReader(file), int64(len(file)))
			if err != nil {
				t.Fatalf("reopen recorded trace: %v", err)
			}

			// Replay 1: materialized, like the bench sweep consumes traces.
			mat, err := r.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			res2, err := system.Run(cfg2, mat)
			if err != nil {
				t.Fatalf("materialized replay: %v", err)
			}
			replayed, err := encodeIndent(res2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recorded, replayed) {
				reportDrift(t, "materialized replay", recorded, replayed)
			}

			// Replay 2: streamed chunk by chunk, like ndpserve trace jobs.
			src, err := r.Source()
			if err != nil {
				t.Fatal(err)
			}
			cfg3, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			res3, err := system.RunSource(cfg3, src)
			if err != nil {
				t.Fatalf("streamed replay: %v", err)
			}
			streamed, err := encodeIndent(res3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recorded, streamed) {
				reportDrift(t, "streamed replay", recorded, streamed)
			}
		})
	}
}

// recordCase runs the case with a trace recorder attached and returns
// the recorded NDPTRC bytes and the run's indented canonical document.
// Host designs fold the trace onto host cores, so the probe events — and
// the recorded trace — live in that space.
func recordCase(t *testing.T, c Case) (trc, doc []byte) {
	t.Helper()
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	recCores := cfg.NumUnits()
	if cfg.Design == system.Host {
		recCores = cfg.HostCores
	}
	var file bytes.Buffer
	w, err := trace.NewWriter(&file, trace.Options{
		Name: tr.Name, Table: tr.Table, Cores: recCores, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(w)
	cfg.AttachProbe(rec)
	res, err := system.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder: %v", err)
	}
	doc, err = encodeIndent(res)
	if err != nil {
		t.Fatal(err)
	}
	return file.Bytes(), doc
}

// encodeIndent renders a result as the indented canonical document the
// golden files hold — the byte-identity currency of this test.
func encodeIndent(res *system.Result) ([]byte, error) {
	doc, err := result.Encode(res)
	if err != nil {
		return nil, err
	}
	return Indent(doc)
}

// reportDrift prints the field-by-field diff so a replay divergence
// names the counter that moved instead of dumping two documents.
func reportDrift(t *testing.T, what string, want, got []byte) {
	t.Helper()
	lines, err := Diff(want, got)
	if err != nil {
		t.Fatalf("%s differs and diff failed: %v", what, err)
	}
	t.Errorf("%s drifted from the recorded run in %d field(s):", what, len(lines))
	for _, l := range lines {
		t.Errorf("  %s", l)
	}
}
