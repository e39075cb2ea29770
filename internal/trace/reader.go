package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ndpext/internal/stream"
	"ndpext/internal/workloads"
)

// maxChunkHeader bounds one chunk header: marker + five uvarints + CRC.
const maxChunkHeader = 1 + 5*binary.MaxVarintLen64 + 4

// ErrCorrupt marks a file whose bytes cannot be decoded as a valid
// trace: bad magic, CRC mismatches, truncation, implausible lengths.
// Every corruption error from NewReader and from chunk decoding
// (Validate, Materialize, Slice, and mid-replay Source reads) wraps it,
// so the serving layer can distinguish "this file is bad and will stay
// bad" (quarantine the digest) from transient I/O or configuration
// errors.
var ErrCorrupt = errors.New("corrupt trace")

// corrupt wraps a decode error with ErrCorrupt (nil passes through).
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// Reader gives random access to a sealed trace file: header metadata,
// per-chunk decode (CRC-verified), streaming replay (Source), and
// slicing — all via the trailing index, without scanning the file.
type Reader struct {
	r    io.ReaderAt
	size int64
	f    *os.File // non-nil when opened via OpenFile

	name          string
	cores         int
	chunkAccesses int
	flags         byte
	streams       []stream.Stream

	chunks  []chunkMeta
	perCore [][]chunkMeta // index-ordered chunk list per core
	counts  []uint64      // per-core access totals
	total   uint64
}

// NewReader parses the header and index of a trace file held in r.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	tr := &Reader{r: r, size: size}
	if err := tr.readHeader(); err != nil {
		return nil, corrupt(err)
	}
	if err := tr.readIndex(); err != nil {
		return nil, corrupt(err)
	}
	return tr, nil
}

// OpenFile opens a trace file from disk. Close releases the handle.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tr, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	tr.f = f
	return tr, nil
}

// Close releases the file handle when opened via OpenFile; a no-op
// otherwise.
func (tr *Reader) Close() error {
	if tr.f != nil {
		return tr.f.Close()
	}
	return nil
}

// Name returns the recorded workload name.
func (tr *Reader) Name() string { return tr.name }

// Cores returns the per-core sequence count.
func (tr *Reader) Cores() int { return tr.cores }

// Accesses returns the total access count across cores.
func (tr *Reader) Accesses() uint64 { return tr.total }

// PerCoreCounts returns each core's access count (a fresh slice).
func (tr *Reader) PerCoreCounts() []uint64 {
	out := make([]uint64, len(tr.counts))
	copy(out, tr.counts)
	return out
}

// ChunkAccesses returns the file's chunking granularity.
func (tr *Reader) ChunkAccesses() int { return tr.chunkAccesses }

// Chunks returns the chunk count.
func (tr *Reader) Chunks() int { return len(tr.chunks) }

// ChunkFileOffset returns the file offset where chunk i's encoded bytes
// (header + CRC-covered payload) begin. Tooling and the chaos harness
// use it to target corruption at specific chunks.
func (tr *Reader) ChunkFileOffset(i int) int64 { return tr.chunks[i].offset }

// Compressed reports whether chunk payloads are flate-compressed.
func (tr *Reader) Compressed() bool { return tr.flags&flagFlate != 0 }

// Streams returns the embedded stream table entries (a fresh slice of
// values; mutating them does not affect the Reader).
func (tr *Reader) Streams() []stream.Stream {
	out := make([]stream.Stream, len(tr.streams))
	copy(out, tr.streams)
	return out
}

// Table builds a fresh stream table from the embedded entries; each call
// returns an independent table.
func (tr *Reader) Table() (*stream.Table, error) {
	t := stream.NewTable()
	for i := range tr.streams {
		s := tr.streams[i]
		if err := t.Add(&s); err != nil {
			return nil, fmt.Errorf("trace: embedded stream table: %w", err)
		}
	}
	return t, nil
}

func (tr *Reader) readHeader() error {
	// Fixed prefix + length varint.
	pre := make([]byte, len(magic)+2+binary.MaxVarintLen64)
	if int64(len(pre)) > tr.size {
		pre = pre[:tr.size]
	}
	if _, err := tr.r.ReadAt(pre, 0); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if len(pre) < len(magic)+2 || string(pre[:len(magic)]) != magic {
		return fmt.Errorf("trace: not a trace file (bad magic)")
	}
	if v := pre[len(magic)]; v != Version {
		return fmt.Errorf("trace: unsupported format version %d (supported: %d)", v, Version)
	}
	tr.flags = pre[len(magic)+1]
	if tr.flags&^byte(flagFlate) != 0 {
		return fmt.Errorf("trace: unknown flags %#x", tr.flags)
	}
	plen, n := binary.Uvarint(pre[len(magic)+2:])
	if n <= 0 || plen > maxHeaderLen {
		return fmt.Errorf("trace: corrupt header length")
	}
	off := int64(len(magic) + 2 + n)
	if off+int64(plen)+4 > tr.size {
		return fmt.Errorf("trace: truncated header")
	}
	buf := make([]byte, plen+4)
	if _, err := tr.r.ReadAt(buf, off); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	payload, sum := buf[:plen], binary.LittleEndian.Uint32(buf[plen:])
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("trace: header CRC mismatch")
	}
	c := &cursor{b: payload}
	nameLen := c.uvarint("name length")
	tr.name = string(c.bytes(int(nameLen), "name"))
	tr.cores = int(c.uvarint("core count"))
	tr.chunkAccesses = int(c.uvarint("chunk size"))
	nStreams := c.uvarint("stream count")
	if c.err == nil && nStreams >= stream.MaxStreams {
		return fmt.Errorf("trace: header declares %d streams (limit %d)", nStreams, stream.MaxStreams-1)
	}
	for i := uint64(0); i < nStreams && c.err == nil; i++ {
		tr.streams = append(tr.streams, c.decodeStream())
	}
	if err := c.done("header"); err != nil {
		return err
	}
	if tr.cores <= 0 || tr.chunkAccesses <= 0 {
		return fmt.Errorf("trace: corrupt header: %d cores, chunk size %d", tr.cores, tr.chunkAccesses)
	}
	return nil
}

func (tr *Reader) readIndex() error {
	if tr.size < int64(footerLen) {
		return fmt.Errorf("trace: file too short for footer")
	}
	ft := make([]byte, footerLen)
	if _, err := tr.r.ReadAt(ft, tr.size-int64(footerLen)); err != nil {
		return fmt.Errorf("trace: reading footer: %w", err)
	}
	if string(ft[8:]) != footerMagic {
		return fmt.Errorf("trace: missing footer (unsealed or truncated file)")
	}
	idxOff := int64(binary.LittleEndian.Uint64(ft[:8]))
	if idxOff < 0 || idxOff >= tr.size-int64(footerLen) {
		return fmt.Errorf("trace: footer points outside the file")
	}
	blk := make([]byte, tr.size-int64(footerLen)-idxOff)
	if _, err := tr.r.ReadAt(blk, idxOff); err != nil {
		return fmt.Errorf("trace: reading index: %w", err)
	}
	c := &cursor{b: blk}
	if c.byte("index marker") != indexMarker {
		return fmt.Errorf("trace: footer does not point at an index block")
	}
	plen := c.uvarint("index length")
	payload := c.bytes(int(plen), "index payload")
	sum := c.u32le("index CRC")
	if err := c.done("index block"); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("trace: index CRC mismatch")
	}
	ic := &cursor{b: payload}
	nChunks := ic.uvarint("chunk count")
	if ic.err == nil && int64(nChunks) > tr.size { // each chunk takes >1 byte
		return fmt.Errorf("trace: index declares %d chunks in a %d-byte file", nChunks, tr.size)
	}
	tr.perCore = make([][]chunkMeta, tr.cores)
	tr.counts = make([]uint64, tr.cores)
	for i := uint64(0); i < nChunks && ic.err == nil; i++ {
		m := chunkMeta{
			core:     int(ic.uvarint("chunk core")),
			startIdx: ic.uvarint("chunk start"),
			count:    ic.uvarint("chunk count"),
			offset:   int64(ic.uvarint("chunk offset")),
		}
		if ic.err != nil {
			break
		}
		if m.core < 0 || m.core >= tr.cores {
			return fmt.Errorf("trace: index chunk %d names core %d of %d", i, m.core, tr.cores)
		}
		if m.count == 0 || m.offset < 0 || m.offset >= tr.size {
			return fmt.Errorf("trace: index chunk %d is malformed", i)
		}
		if m.startIdx != tr.counts[m.core] {
			return fmt.Errorf("trace: core %d chunks not contiguous (start %d, expected %d)",
				m.core, m.startIdx, tr.counts[m.core])
		}
		tr.counts[m.core] += m.count
		tr.chunks = append(tr.chunks, m)
		tr.perCore[m.core] = append(tr.perCore[m.core], m)
	}
	total := ic.uvarint("total accesses")
	if err := ic.done("index"); err != nil {
		return err
	}
	var sumCounts uint64
	for _, n := range tr.counts {
		sumCounts += n
	}
	if total != sumCounts {
		return fmt.Errorf("trace: index total %d disagrees with per-core sum %d", total, sumCounts)
	}
	tr.total = total
	return nil
}

// readChunk decodes one chunk, verifying its header against the index
// entry and its payload against the stored CRC. Accesses are appended
// to dst (pass a reused buffer to avoid allocation). Decode failures
// wrap ErrCorrupt.
func (tr *Reader) readChunk(m chunkMeta, dst []workloads.Access) ([]workloads.Access, error) {
	out, err := tr.readChunkRaw(m, dst)
	if err != nil {
		return out, corrupt(err)
	}
	return out, nil
}

func (tr *Reader) readChunkRaw(m chunkMeta, dst []workloads.Access) ([]workloads.Access, error) {
	hb := make([]byte, maxChunkHeader)
	if m.offset+int64(len(hb)) > tr.size {
		hb = hb[:tr.size-m.offset]
	}
	if _, err := tr.r.ReadAt(hb, m.offset); err != nil {
		return nil, fmt.Errorf("trace: reading chunk at %d: %w", m.offset, err)
	}
	c := &cursor{b: hb}
	if c.byte("chunk marker") != chunkMarker {
		return nil, fmt.Errorf("trace: no chunk at offset %d", m.offset)
	}
	core := c.uvarint("chunk core")
	start := c.uvarint("chunk start")
	count := c.uvarint("chunk count")
	rawLen := c.uvarint("chunk raw length")
	encLen := c.uvarint("chunk encoded length")
	sum := c.u32le("chunk CRC")
	if c.err != nil {
		return nil, c.err
	}
	if int(core) != m.core || start != m.startIdx || count != m.count {
		return nil, fmt.Errorf("trace: chunk at %d disagrees with index (core %d@%d x%d vs core %d@%d x%d)",
			m.offset, core, start, count, m.core, m.startIdx, m.count)
	}
	// Sanity-bound the lengths before allocating.
	if rawLen > uint64(count)*(binary.MaxVarintLen64+2) || int64(encLen) > tr.size {
		return nil, fmt.Errorf("trace: chunk at %d has implausible payload lengths", m.offset)
	}
	payOff := m.offset + int64(c.off)
	if payOff+int64(encLen) > tr.size {
		return nil, fmt.Errorf("trace: chunk at %d truncated", m.offset)
	}
	enc := make([]byte, encLen)
	if _, err := tr.r.ReadAt(enc, payOff); err != nil {
		return nil, fmt.Errorf("trace: reading chunk payload at %d: %w", payOff, err)
	}
	raw := enc
	if tr.Compressed() {
		raw = make([]byte, 0, rawLen)
		fr := flate.NewReader(bytes.NewReader(enc))
		var err error
		raw, err = appendAll(raw, fr, rawLen)
		if err != nil {
			return nil, fmt.Errorf("trace: decompressing chunk at %d: %w", m.offset, err)
		}
	}
	if uint64(len(raw)) != rawLen {
		return nil, fmt.Errorf("trace: chunk at %d decompressed to %d bytes, header says %d",
			m.offset, len(raw), rawLen)
	}
	if crc32.ChecksumIEEE(raw) != sum {
		return nil, fmt.Errorf("trace: chunk at %d failed CRC check", m.offset)
	}
	return decodeChunkPayload(raw, int(count), dst)
}

// appendAll reads r to EOF into dst, refusing to grow past limit+1
// (corrupt compressed data must not balloon memory).
func appendAll(dst []byte, r io.Reader, limit uint64) ([]byte, error) {
	lr := io.LimitReader(r, int64(limit)+1)
	for {
		if uint64(len(dst)) > limit {
			return dst, fmt.Errorf("payload exceeds declared length %d", limit)
		}
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := lr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Validate decodes and CRC-checks every chunk, confirming the file is
// fully readable end to end.
func (tr *Reader) Validate() error {
	var buf []workloads.Access
	for _, m := range tr.chunks {
		var err error
		buf, err = tr.readChunk(m, buf[:0])
		if err != nil {
			return err
		}
	}
	return nil
}

// Materialize decodes the whole file into an in-memory trace (fresh
// stream table included). For long traces prefer Source, which streams
// with bounded memory.
func (tr *Reader) Materialize() (*workloads.Trace, error) {
	table, err := tr.Table()
	if err != nil {
		return nil, err
	}
	out := &workloads.Trace{Name: tr.name, Table: table, PerCore: make([][]workloads.Access, tr.cores)}
	for c := range out.PerCore {
		out.PerCore[c] = make([]workloads.Access, 0, tr.counts[c])
		for _, m := range tr.perCore[c] {
			out.PerCore[c], err = tr.readChunk(m, out.PerCore[c])
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// DigestFile returns the SHA-256 hex digest of the file at path — the
// content address the serving layer keys trace-backed jobs by.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
