package trace

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// Options configures a Writer.
type Options struct {
	// Name is the trace's workload name, reproduced verbatim on replay
	// so canonical result documents match the recorded run's.
	Name string
	// Table is the stream table embedded in the header. It is copied at
	// Writer construction with every stream freshly configured
	// (read-only bit set), the state a replay starts from.
	Table *stream.Table
	// Cores is the number of per-core access sequences.
	Cores int
	// ChunkAccesses caps accesses per chunk; 0 means
	// DefaultChunkAccesses.
	ChunkAccesses int
	// Compress flate-compresses chunk payloads. Roughly halves file size
	// on the synthetic workloads at ~3x slower encode; see DESIGN.md for
	// measurements.
	Compress bool
}

// Writer streams a trace file: accesses are appended per core, flushed
// as independent chunks, and sealed with a seekable index on Close.
// Memory stays bounded at one partial chunk per core.
type Writer struct {
	w       *bufio.Writer
	off     int64
	opts    Options
	streams []stream.Stream

	buf     [][]workloads.Access // per-core partial chunk
	written []uint64             // per-core flushed access count
	chunks  []chunkMeta

	scratch []byte // chunk encode buffer, reused across flushes
	fw      *flate.Writer
	closed  bool
	err     error
}

// NewWriter starts a trace file on w.
func NewWriter(w io.Writer, opts Options) (*Writer, error) {
	if opts.Cores <= 0 {
		return nil, fmt.Errorf("trace: writer needs a positive core count, got %d", opts.Cores)
	}
	if opts.ChunkAccesses <= 0 {
		opts.ChunkAccesses = DefaultChunkAccesses
	}
	tw := &Writer{
		w:       bufio.NewWriter(w),
		opts:    opts,
		buf:     make([][]workloads.Access, opts.Cores),
		written: make([]uint64, opts.Cores),
	}
	if opts.Table != nil {
		for _, s := range opts.Table.All() {
			c := *s
			c.ReadOnly = true // snapshot as freshly configured
			tw.streams = append(tw.streams, c)
		}
	}
	if opts.Compress {
		fw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		tw.fw = fw
	}
	return tw, tw.writeHeader()
}

func (tw *Writer) write(b []byte) {
	if tw.err != nil {
		return
	}
	n, err := tw.w.Write(b)
	tw.off += int64(n)
	tw.err = err
}

func (tw *Writer) writeHeader() error {
	p := appendUvarint(nil, uint64(len(tw.opts.Name)))
	p = append(p, tw.opts.Name...)
	p = appendUvarint(p, uint64(tw.opts.Cores))
	p = appendUvarint(p, uint64(tw.opts.ChunkAccesses))
	p = appendUvarint(p, uint64(len(tw.streams)))
	for i := range tw.streams {
		p = appendStream(p, &tw.streams[i])
	}
	var flags byte
	if tw.opts.Compress {
		flags |= flagFlate
	}
	h := append([]byte(magic), Version, flags)
	h = appendUvarint(h, uint64(len(p)))
	h = append(h, p...)
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(p))
	tw.write(h)
	return tw.err
}

// Add appends one access to core's sequence.
func (tw *Writer) Add(core int, a workloads.Access) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return fmt.Errorf("trace: Add after Close")
	}
	if core < 0 || core >= tw.opts.Cores {
		tw.err = fmt.Errorf("trace: access for core %d in a %d-core trace", core, tw.opts.Cores)
		return tw.err
	}
	tw.buf[core] = append(tw.buf[core], a)
	if len(tw.buf[core]) >= tw.opts.ChunkAccesses {
		tw.flush(core)
	}
	return tw.err
}

// flush writes core's buffered accesses as one chunk.
func (tw *Writer) flush(core int) {
	accs := tw.buf[core]
	if tw.err != nil || len(accs) == 0 {
		return
	}
	raw := encodeChunkPayload(tw.scratch[:0], accs)
	tw.scratch = raw
	enc := raw
	if tw.fw != nil {
		var cb countingBuf
		tw.fw.Reset(&cb)
		if _, err := tw.fw.Write(raw); err != nil {
			tw.err = err
			return
		}
		if err := tw.fw.Close(); err != nil {
			tw.err = err
			return
		}
		enc = cb.b
	}
	h := []byte{chunkMarker}
	h = appendUvarint(h, uint64(core))
	h = appendUvarint(h, tw.written[core])
	h = appendUvarint(h, uint64(len(accs)))
	h = appendUvarint(h, uint64(len(raw)))
	h = appendUvarint(h, uint64(len(enc)))
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(raw))
	meta := chunkMeta{core: core, startIdx: tw.written[core], count: uint64(len(accs)), offset: tw.off}
	tw.write(h)
	tw.write(enc)
	if tw.err != nil {
		return
	}
	tw.chunks = append(tw.chunks, meta)
	tw.written[core] += uint64(len(accs))
	tw.buf[core] = accs[:0]
}

// Close flushes every partial chunk and writes the index and footer. It
// does not close the underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	for c := range tw.buf {
		tw.flush(c)
	}
	indexOff := tw.off
	p := appendUvarint(nil, uint64(len(tw.chunks)))
	for _, m := range tw.chunks {
		p = appendUvarint(p, uint64(m.core))
		p = appendUvarint(p, m.startIdx)
		p = appendUvarint(p, m.count)
		p = appendUvarint(p, uint64(m.offset))
	}
	var total uint64
	for _, n := range tw.written {
		total += n
	}
	p = appendUvarint(p, total)
	b := []byte{indexMarker}
	b = appendUvarint(b, uint64(len(p)))
	b = append(b, p...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
	// Footer: fixed-width index offset + closing magic.
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	b = append(b, footerMagic...)
	tw.write(b)
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// countingBuf collects flate output.
type countingBuf struct{ b []byte }

func (c *countingBuf) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// WriteTrace writes a materialized trace to w in the native format.
func WriteTrace(w io.Writer, tr *workloads.Trace, chunkAccesses int, compress bool) error {
	tw, err := NewWriter(w, Options{
		Name: tr.Name, Table: tr.Table, Cores: len(tr.PerCore),
		ChunkAccesses: chunkAccesses, Compress: compress,
	})
	if err != nil {
		return err
	}
	for c, accs := range tr.PerCore {
		for _, a := range accs {
			if err := tw.Add(c, a); err != nil {
				return err
			}
		}
	}
	return tw.Close()
}

// SaveFile writes a materialized trace to path with default chunking
// and compression on.
func SaveFile(path string, tr *workloads.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, tr, 0, true); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Recorder is a telemetry probe that captures every simulated access
// into a trace Writer. Attach it via Config.AttachProbe so it composes
// with sampling probes; the probe contract (single simulation
// goroutine, no Event retention) makes the unsynchronized Writer safe.
// Errors are sticky and surfaced by Err/Close — a probe callback cannot
// fail, so the recorder swallows them mid-run.
type Recorder struct {
	w   *Writer
	err error
}

// NewRecorder wraps a Writer as a probe sink.
func NewRecorder(w *Writer) *Recorder { return &Recorder{w: w} }

// Record implements telemetry.Probe.
func (r *Recorder) Record(ev *telemetry.Event) {
	if r.err != nil {
		return
	}
	r.err = r.w.Add(ev.Core, workloads.Access{Addr: ev.Addr, Write: ev.Write, Gap: ev.Gap})
}

// Err reports the first write failure, if any.
func (r *Recorder) Err() error { return r.err }

// Close seals the trace file (flushes chunks, writes the index) and
// reports the first error from the whole recording.
func (r *Recorder) Close() error {
	if err := r.w.Close(); r.err == nil {
		r.err = err
	}
	return r.err
}
