package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ndpext/internal/par"
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

	enc    chunkEncoder // reused across flushes
	closed bool
	err    error
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
	c, err := tw.enc.encode(core, accs, tw.opts.Compress)
	if err != nil {
		tw.err = err
		return
	}
	tw.writeChunk(c)
	tw.buf[core] = accs[:0]
}

// writeChunk writes c after the chunks before it and indexes it.
func (tw *Writer) writeChunk(c chunk) {
	start := tw.written[c.core]
	h := []byte{chunkMarker}
	h = appendUvarint(h, uint64(c.core))
	h = appendUvarint(h, start)
	h = appendUvarint(h, uint64(c.count))
	h = appendUvarint(h, uint64(c.rawLen))
	h = appendUvarint(h, uint64(len(c.stored)))
	h = binary.LittleEndian.AppendUint32(h, c.crc)
	meta := chunkMeta{core: c.core, startIdx: start, count: uint64(c.count), offset: tw.off}
	tw.write(h)
	tw.write(c.stored)
	if tw.err != nil {
		return
	}
	tw.chunks = append(tw.chunks, meta)
	tw.written[c.core] += uint64(c.count)
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

// chunk is one encoded chunk: its core, its access count, the length
// and CRC of its raw payload, and the payload as stored, flate-compressed
// or raw.
type chunk struct {
	core, count, rawLen int
	crc                 uint32
	stored              []byte
}

// chunkEncoder encodes chunks, reusing its buffers and its flate state
// from one chunk to the next.
type chunkEncoder struct {
	raw []byte
	out countingBuf
	fw  *flate.Writer
}

// encode encodes accs as one chunk of core. The chunk's stored payload
// is e's buffer, valid until e's next encode.
func (e *chunkEncoder) encode(core int, accs []workloads.Access, compress bool) (chunk, error) {
	e.raw = encodeChunkPayload(e.raw[:0], accs)
	c := chunk{core: core, count: len(accs), rawLen: len(e.raw), crc: crc32.ChecksumIEEE(e.raw), stored: e.raw}
	if !compress {
		return c, nil
	}
	if e.fw == nil {
		fw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			return chunk{}, err
		}
		e.fw = fw
	}
	e.out.b = e.out.b[:0]
	e.fw.Reset(&e.out)
	if _, err := e.fw.Write(e.raw); err != nil {
		return chunk{}, err
	}
	if err := e.fw.Close(); err != nil {
		return chunk{}, err
	}
	c.stored = e.out.b
	return c, nil
}

// countingBuf collects flate output.
type countingBuf struct{ b []byte }

func (c *countingBuf) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// WriteTrace writes a materialized trace to w in the native format. The
// file is the one a Writer fed core by core with Add writes: every
// core's full chunks in core order, then, from Close, every core's
// remainder in core order. The chunks are independent, so they are
// encoded on at most GOMAXPROCS goroutines and held until written in
// that order.
func WriteTrace(w io.Writer, tr *workloads.Trace, chunkAccesses int, compress bool) error {
	tw, err := NewWriter(w, Options{
		Name: tr.Name, Table: tr.Table, Cores: len(tr.PerCore),
		ChunkAccesses: chunkAccesses, Compress: compress,
	})
	if err != nil {
		return err
	}
	type span struct{ core, lo, hi int }
	var spans []span
	per := tw.opts.ChunkAccesses
	for c, accs := range tr.PerCore {
		for lo := 0; lo+per <= len(accs); lo += per {
			spans = append(spans, span{c, lo, lo + per})
		}
	}
	for c, accs := range tr.PerCore {
		if r := len(accs) % per; r > 0 {
			spans = append(spans, span{c, len(accs) - r, len(accs)})
		}
	}
	chunks := make([]chunk, len(spans))
	errs := make([]error, len(spans))
	par.Each(len(spans), func(e *chunkEncoder, i int) {
		s := spans[i]
		c, err := e.encode(s.core, tr.PerCore[s.core][s.lo:s.hi], compress)
		c.stored = bytes.Clone(c.stored)
		chunks[i], errs[i] = c, err
	})
	for i, c := range chunks {
		if errs[i] != nil {
			return errs[i]
		}
		tw.writeChunk(c)
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
