package telemetry

import "sync"

// Snapshot is a point-in-time copy of a run's hot-path counters with
// latencies flattened to nanoseconds, suitable for crossing goroutine and
// process boundaries (progress streaming, JSON encoding). It is a plain
// value: copy it freely.
type Snapshot struct {
	Accesses    uint64  `json:"accesses"`
	L1Hits      uint64  `json:"l1_hits"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	Exceptions  uint64  `json:"exceptions,omitempty"`
	Reconfigs   int     `json:"reconfigs,omitempty"`
	LevelNS     levelNS `json:"lat_ns"`
}

// levelNS carries the per-level latency totals in nanoseconds, keyed by
// the Level names used everywhere else (figures, JSONL traces).
type levelNS struct {
	Core      float64 `json:"core"`
	Meta      float64 `json:"meta"`
	IntraNoC  float64 `json:"intra-noc"`
	InterNoC  float64 `json:"inter-noc"`
	CacheDRAM float64 `json:"dram"`
	Extended  float64 `json:"extended"`
}

// Snapshot copies the counters together with the run's DRAM cache hit
// and miss counts, which the design's cache controller owns. It must be
// called from the goroutine that owns c (the simulation loop); hand the
// returned value — not the Counters — to other goroutines.
func (c *Counters) Snapshot(cacheHits, cacheMisses uint64) Snapshot {
	return Snapshot{
		Accesses:    c.Accesses,
		L1Hits:      c.L1Hits,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
		Exceptions:  c.Exceptions,
		Reconfigs:   c.Reconfigs,
		LevelNS: levelNS{
			Core:      c.Levels[LevelCore].NS(),
			Meta:      c.Levels[LevelMeta].NS(),
			IntraNoC:  c.Levels[LevelIntraNoC].NS(),
			InterNoC:  c.Levels[LevelInterNoC].NS(),
			CacheDRAM: c.Levels[LevelCacheDRAM].NS(),
			Extended:  c.Levels[LevelExtended].NS(),
		},
	}
}

// Live is a goroutine-safe holder for the latest Snapshot of a running
// simulation: the simulation goroutine publishes at epoch boundaries,
// and any number of observers (status endpoints, progress streams) load
// concurrently. The zero value is ready to use.
type Live struct {
	mu   sync.RWMutex
	snap Snapshot
	seq  uint64 // publish count; 0 means nothing published yet
}

// Publish stores s as the latest snapshot.
func (l *Live) Publish(s Snapshot) {
	l.mu.Lock()
	l.snap = s
	l.seq++
	l.mu.Unlock()
}

// Load returns the latest snapshot and whether one was ever published.
func (l *Live) Load() (Snapshot, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.snap, l.seq > 0
}

// Seq returns the number of snapshots published so far.
func (l *Live) Seq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seq
}
