// Package store is the persistence layer of the serving stack: the
// content-addressed result store (a simcache-backed map from canonical
// input hashes to canonical result documents, with warm-restart index
// persistence) and the digest-keyed trace registry behind -trace-dir.
//
// Layering: store sits at the bottom of the serving stack. It may be
// imported by the scheduler and transport layers but imports neither,
// and it must never import net/http — an arch test enforces this.
package store

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"ndpext/internal/simcache"
)

// Options configures a Store. Zero values take the documented defaults.
type Options struct {
	// Entries bounds the result store; default 1024 (LRU beyond that).
	Entries int
	// TTL expires stored results; default 0 (never).
	TTL time.Duration
	// Path, when set, persists the index there on Persist and
	// warm-loads it in Open.
	Path string
	// Logf receives loud operational messages (index quarantine).
	// Default log.Printf; tests inject a recorder.
	Logf func(format string, args ...any)
}

// Store is the content-addressed result store: canonical result
// documents keyed by the SHA-256 of their job's canonical inputs.
// All methods are safe for concurrent use.
type Store struct {
	opt     Options
	results *simcache.Cache[[]byte]

	quarantines     atomic.Uint64 // corrupt warm-restart indexes quarantined
	quarantinedPath string        // where the last corrupt index went
}

// Open builds a store and warm-loads the index from Options.Path if it
// exists (a missing file is a cold start, not an error). A corrupt or
// unreadable index must not brick the server: it is quarantined —
// renamed to <path>.corrupt-<n> for offline inspection — logged loudly,
// and the store starts cold. The next Persist writes a fresh, clean
// index to the original path.
func Open(opt Options) (*Store, error) {
	if opt.Entries <= 0 {
		opt.Entries = 1024
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	s := &Store{opt: opt, results: simcache.New[[]byte](opt.Entries, opt.TTL)}
	if opt.Path != "" {
		if _, err := simcache.LoadFile(s.results, opt.Path); err != nil {
			qpath, qerr := quarantineFile(opt.Path)
			if qerr != nil {
				return nil, fmt.Errorf("store: warm-load index: %v (and quarantine failed: %w)", err, qerr)
			}
			// A partial load may have populated the cache before the
			// decoder tripped; drop everything — quarantine means cold.
			s.results = simcache.New[[]byte](opt.Entries, opt.TTL)
			s.quarantines.Add(1)
			s.quarantinedPath = qpath
			opt.Logf("QUARANTINE: warm-restart index %s is corrupt (%v); moved to %s, starting cold",
				opt.Path, err, qpath)
		}
	}
	return s, nil
}

// quarantineFile renames path to the first free <path>.corrupt-<n> so a
// corrupt index is preserved for inspection without blocking startup.
func quarantineFile(path string) (string, error) {
	for n := 1; ; n++ {
		q := fmt.Sprintf("%s.corrupt-%d", path, n)
		if _, err := os.Lstat(q); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return "", err
		}
		if err := os.Rename(path, q); err != nil {
			return "", err
		}
		return q, nil
	}
}

// Get returns the stored document for k, bumping its recency.
func (s *Store) Get(k simcache.Key) ([]byte, bool) { return s.results.Get(k) }

// Put stores a document computed elsewhere under its content address —
// the landing point for cluster replication. Like every entry, it is
// subject to LRU eviction and TTL expiry.
func (s *Store) Put(k simcache.Key, doc []byte) { s.results.Put(k, doc) }

// Contains reports residency without touching recency or stats.
func (s *Store) Contains(k simcache.Key) bool { return s.results.Contains(k) }

// Stats returns the result store's activity counters.
func (s *Store) Stats() simcache.Stats { return s.results.Stats() }

// Persist writes the index to Options.Path atomically; a store opened
// without a path persists nothing.
func (s *Store) Persist() error {
	if s.opt.Path == "" {
		return nil
	}
	if err := simcache.SaveFile(s.results, s.opt.Path); err != nil {
		return fmt.Errorf("store: persist index: %w", err)
	}
	return nil
}

// Path returns the index path ("" when persistence is disabled).
func (s *Store) Path() string { return s.opt.Path }

// IndexQuarantines counts corrupt warm-restart indexes quarantined at
// Open (0 or 1 per process; surfaced on /healthz).
func (s *Store) IndexQuarantines() uint64 { return s.quarantines.Load() }

// QuarantinedPath returns where the corrupt index was moved ("" when
// the last Open loaded cleanly).
func (s *Store) QuarantinedPath() string { return s.quarantinedPath }
