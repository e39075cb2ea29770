package trace

import (
	"ndpext/internal/stream"
	"ndpext/internal/workloads"
)

// Source streams the trace's accesses into the simulator with bounded
// memory: one decoded chunk is buffered per core (≈ ChunkAccesses ×
// cores accesses total), regardless of file size. It implements
// workloads.Source; a Source is single-use — open a fresh one per run.
type Source struct {
	r     *Reader
	table *stream.Table
	cur   []coreCursor
	err   error
}

// coreCursor tracks one core's replay position.
type coreCursor struct {
	chunks []chunkMeta
	next   int // next chunk to decode
	buf    []workloads.Access
	pos    int
}

// Source opens a streaming replay over the whole file.
func (tr *Reader) Source() (*Source, error) {
	table, err := tr.Table()
	if err != nil {
		return nil, err
	}
	s := &Source{r: tr, table: table, cur: make([]coreCursor, tr.cores)}
	for c := range s.cur {
		s.cur[c].chunks = tr.perCore[c]
	}
	return s, nil
}

// Name implements workloads.Source.
func (s *Source) Name() string { return s.r.name }

// Table implements workloads.Source. The table is built from the file's
// header when the Source is opened.
func (s *Source) Table() *stream.Table { return s.table }

// Cores implements workloads.Source.
func (s *Source) Cores() int { return s.r.cores }

// Next implements workloads.Source: the core's next access, decoded
// lazily chunk by chunk. After a decode error it reports exhaustion;
// Err distinguishes that from a clean end.
func (s *Source) Next(core int) (workloads.Access, bool) {
	cc := &s.cur[core]
	if cc.pos >= len(cc.buf) {
		if s.err != nil || cc.next >= len(cc.chunks) {
			return workloads.Access{}, false
		}
		buf, err := s.r.readChunk(cc.chunks[cc.next], cc.buf[:0])
		if err != nil {
			s.err = err
			return workloads.Access{}, false
		}
		cc.buf, cc.pos = buf, 0
		cc.next++
	}
	a := cc.buf[cc.pos]
	cc.pos++
	return a, true
}

// Err implements workloads.Source.
func (s *Source) Err() error { return s.err }
