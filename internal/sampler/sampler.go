// Package sampler implements NDPExt's set-based miss-curve samplers
// (paper §V-A). NDPExt's DRAM cache is direct-mapped (or low-associative)
// and partitioned along sets, so the stack property does not hold and
// classic UMON way-sampling cannot be used. Instead each sampler
// simultaneously shadows c = 64 hypothetical capacities, geometrically
// spaced between a minimum and the full per-unit DRAM space (per-step
// factor 1.16 in the paper's 32 kB..256 MB range), sampling k = 32 sets
// at each capacity and scaling the counts by (sets / k).
package sampler

import (
	"fmt"
	"math"
)

// Config sizes the samplers.
type Config struct {
	CapacityPoints  int   // c: simultaneous capacities per sampler (64)
	SampleSets      int   // k: sampled sets per capacity (32; Fig. 9d knob)
	MinBytes        int64 // smallest monitored capacity
	MaxBytes        int64 // largest monitored capacity (full unit DRAM)
	SamplersPerUnit int   // S: samplers per NDP unit (4)
}

// DefaultConfig returns the paper's sampler design, parameterized by the
// per-unit DRAM capacity (256 MB in the paper, scaled in this repo).
func DefaultConfig(unitBytes int64) Config {
	return Config{
		CapacityPoints:  64,
		SampleSets:      32,
		MinBytes:        unitBytes / 8192, // 32 kB when unitBytes = 256 MB
		MaxBytes:        unitBytes,
		SamplersPerUnit: 4,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CapacityPoints < 2 {
		return fmt.Errorf("sampler: need at least 2 capacity points")
	}
	if c.SampleSets < 1 {
		return fmt.Errorf("sampler: need at least 1 sample set")
	}
	if c.MinBytes < 1 || c.MaxBytes < c.MinBytes {
		return fmt.Errorf("sampler: bad capacity range [%d, %d]", c.MinBytes, c.MaxBytes)
	}
	if c.SamplersPerUnit < 1 {
		return fmt.Errorf("sampler: need at least 1 sampler per unit")
	}
	return nil
}

// StorageBytes reports the SRAM cost of one sampler: 4 bytes per sampled
// set per capacity point (paper: 32 x 64 x 4 B = 8 kB).
func (c Config) StorageBytes() int {
	return c.SampleSets * c.CapacityPoints * 4
}

// Sampler shadows the miss behaviour of one stream at many capacities.
type Sampler struct {
	cfg       Config
	itemBytes int
	points    []capPoint
	accesses  uint64
}

// capPoint is one hypothetical capacity: a direct-mapped cache of numSets
// sets of which only the sampled ones hold (shadow) state.
//
// A set is sampled iff set%stride == 0 && set/stride < k (k =
// SampleSets). Shadow tags live in a dense k-slot array indexed by
// set/stride rather than a map: the index is a bijection over the
// sampled sets, so hit/miss decisions are identical, without the
// hashing. slot gets both the test and the index from one exact division.
type capPoint struct {
	bytes   int64
	numSets uint64
	// bySets reduces the hash to a set index without a hardware
	// division (bit-exact with % per TestFastDivExact); byStride is the
	// exact divider behind slot (TestSlotMatchesModulo).
	bySets   fastDiv
	byStride exactDiv
	tags     []uint64
	occ      []bool
	hits     uint64
	misses   uint64
}

// New builds a sampler for a stream whose cache items (affine blocks or
// indirect elements) are itemBytes each.
func New(cfg Config, itemBytes int) *Sampler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if itemBytes <= 0 {
		panic(fmt.Sprintf("sampler: itemBytes = %d", itemBytes))
	}
	s := &Sampler{cfg: cfg, itemBytes: itemBytes}
	// Geometric spacing from MinBytes to MaxBytes.
	ratio := math.Pow(float64(cfg.MaxBytes)/float64(cfg.MinBytes), 1/float64(cfg.CapacityPoints-1))
	for i := 0; i < cfg.CapacityPoints; i++ {
		b := int64(float64(cfg.MinBytes) * math.Pow(ratio, float64(i)))
		if i == cfg.CapacityPoints-1 {
			b = cfg.MaxBytes
		}
		n := uint64(b) / uint64(itemBytes)
		if n == 0 {
			n = 1
		}
		stride := n / uint64(cfg.SampleSets)
		if stride == 0 {
			stride = 1
		}
		s.points = append(s.points, capPoint{
			bytes: b, numSets: n,
			bySets:   newFastDiv(n),
			byStride: newExactDiv(stride),
			tags:     make([]uint64, cfg.SampleSets),
			occ:      make([]bool, cfg.SampleSets),
		})
	}
	return s
}

// hashItem matches the placement hash family used by the stream cache so
// the shadow sets see the same distribution.
func hashItem(id uint64) uint64 {
	x := id ^ 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Observe feeds one access (by item ID) to the sampler.
func (s *Sampler) Observe(item uint64) {
	s.accesses++
	h := hashItem(item)
	for i := range s.points {
		p := &s.points[i]
		if j, ok := p.slot(h); ok {
			p.touch(j, item)
		}
	}
}

// slot maps hash h to its set at this capacity and reports that set's
// sampled-slot index and whether the set is sampled at all. The exact
// divider's quotient is set/stride for multiples of the stride and
// exceeds (2^64-1)/stride for every other set; New keeps stride*k <=
// numSets, so that bound is at least k and one check covers both
// conditions of the sampled-set rule.
func (p *capPoint) slot(h uint64) (uint64, bool) {
	j := p.byStride.quo(p.bySets.mod(h))
	return j, j < uint64(len(p.tags))
}

// touch records an access to sampled slot j (= set/stride).
func (p *capPoint) touch(j, item uint64) {
	if p.occ[j] && p.tags[j] == item {
		p.hits++
	} else {
		p.misses++
		p.tags[j] = item
		p.occ[j] = true
	}
}

// ObservePair feeds one access to two samplers at once. When both share
// the same geometry (same Config and item size — always true for the
// local/global sampler pair the simulator keeps per stream), the
// per-capacity set arithmetic is computed once and applied to both
// shadow states, halving the dominant per-observation cost; otherwise it
// falls back to two independent Observe calls. The recorded hits and
// misses are identical either way.
func ObservePair(a, b *Sampler, item uint64) {
	if a.cfg != b.cfg || a.itemBytes != b.itemBytes {
		a.Observe(item)
		b.Observe(item)
		return
	}
	a.accesses++
	b.accesses++
	h := hashItem(item)
	for i := range a.points {
		pa := &a.points[i]
		if j, ok := pa.slot(h); ok {
			pa.touch(j, item)
			b.points[i].touch(j, item)
		}
	}
}

// Accesses reports the total observed accesses.
func (s *Sampler) Accesses() uint64 { return s.accesses }

// ItemBytes reports the item granularity the sampler was built for.
func (s *Sampler) ItemBytes() int { return s.itemBytes }

// Reset clears shadow state and counters for the next epoch. A Reset
// sampler is indistinguishable from a freshly built one with the same
// Config and item size (the capacity-point geometry is a pure function
// of those), which is what lets the simulator pool and reuse samplers
// across epoch reassignments instead of reallocating them.
func (s *Sampler) Reset() {
	s.accesses = 0
	for i := range s.points {
		p := &s.points[i]
		p.hits, p.misses = 0, 0
		clear(p.occ)
	}
}

// Curve extracts the miss curve observed so far. Capacity points whose
// sampled sets saw no accesses are dropped (interpolation covers them),
// and the remaining points are fitted with a weighted non-increasing
// isotonic regression: set sampling at a single capacity is noisy
// (especially near the working-set knee, where few items land in the k
// sampled sets), and a miss curve is physically non-increasing for the
// hashed direct-mapped caches NDPExt uses, so the monotone fit recovers
// the underlying curve (the paper similarly interpolates, §V-A).
func (s *Sampler) Curve() Curve {
	c := Curve{ItemBytes: s.itemBytes, Accesses: s.accesses}
	for i := range s.points {
		p := &s.points[i]
		total := p.hits + p.misses
		if total == 0 {
			continue
		}
		c.Points = append(c.Points, CurvePoint{
			Bytes:    p.bytes,
			MissRate: float64(p.misses) / float64(total),
			Sampled:  total,
		})
	}
	fitNonIncreasing(c.Points)
	return c
}

// fitNonIncreasing applies pool-adjacent-violators to make MissRate
// non-increasing in capacity, weighting each point by its sampled count.
func fitNonIncreasing(pts []CurvePoint) {
	if len(pts) < 2 {
		return
	}
	type block struct {
		v, w float64
		n    int
	}
	blocks := make([]block, 0, len(pts))
	// Reverse order turns the non-increasing fit into the standard
	// non-decreasing PAVA.
	for i := len(pts) - 1; i >= 0; i-- {
		b := block{v: pts[i].MissRate, w: float64(pts[i].Sampled), n: 1}
		blocks = append(blocks, b)
		for len(blocks) >= 2 {
			last := blocks[len(blocks)-1]
			prev := blocks[len(blocks)-2]
			if prev.v <= last.v {
				break
			}
			merged := block{
				v: (prev.v*prev.w + last.v*last.w) / (prev.w + last.w),
				w: prev.w + last.w,
				n: prev.n + last.n,
			}
			blocks = blocks[:len(blocks)-2]
			blocks = append(blocks, merged)
		}
	}
	i := len(pts) - 1
	for _, b := range blocks {
		for j := 0; j < b.n; j++ {
			pts[i].MissRate = b.v
			i--
		}
	}
}

// CurvePoint is one (capacity, miss rate) observation.
type CurvePoint struct {
	Bytes    int64
	MissRate float64
	Sampled  uint64 // sampled accesses backing this point
}

// Curve is a stream's miss curve: miss rate as a function of allocated
// cache capacity, interpolated between the sampled capacities as in
// Jigsaw.
type Curve struct {
	ItemBytes int
	Accesses  uint64 // total stream accesses in the epoch
	Points    []CurvePoint
}

// MissRateAt interpolates the miss rate at the given capacity
// (linear in log-capacity between sampled points, clamped at the ends).
// Zero capacity always misses.
func (c Curve) MissRateAt(bytes int64) float64 {
	if bytes <= 0 {
		return 1
	}
	if len(c.Points) == 0 {
		return 1
	}
	if bytes <= c.Points[0].Bytes {
		return c.Points[0].MissRate
	}
	last := c.Points[len(c.Points)-1]
	if bytes >= last.Bytes {
		return last.MissRate
	}
	for i := 1; i < len(c.Points); i++ {
		if bytes <= c.Points[i].Bytes {
			a, b := c.Points[i-1], c.Points[i]
			f := (math.Log(float64(bytes)) - math.Log(float64(a.Bytes))) /
				(math.Log(float64(b.Bytes)) - math.Log(float64(a.Bytes)))
			return a.MissRate + f*(b.MissRate-a.MissRate)
		}
	}
	return last.MissRate
}

// MissesAt estimates the absolute epoch misses at the given capacity.
func (c Curve) MissesAt(bytes int64) float64 {
	return float64(c.Accesses) * c.MissRateAt(bytes)
}

// Knee returns the smallest sampled capacity whose miss rate is within
// tol of the curve's floor (the miss rate at the largest capacity) -- the
// point past which more capacity stops helping. Replication policy uses
// it to size replicas: a stream whose knee is small (a hot head, e.g.
// Zipf-skewed embeddings) replicates cheaply, while a stream that only
// flattens at its full footprint is better served by one shared copy.
// Returns 0 for an empty curve.
func (c Curve) Knee(tol float64) int64 {
	if len(c.Points) == 0 {
		return 0
	}
	floor := c.Points[len(c.Points)-1].MissRate
	for _, p := range c.Points {
		if p.MissRate <= floor+tol {
			return p.Bytes
		}
	}
	return c.Points[len(c.Points)-1].Bytes
}

// FlatCurve returns a pessimistic all-miss curve for streams no sampler
// covered (used until coverage catches up across epochs, §V-B).
func FlatCurve(itemBytes int, accesses uint64) Curve {
	return Curve{
		ItemBytes: itemBytes,
		Accesses:  accesses,
		Points: []CurvePoint{
			{Bytes: 1, MissRate: 1},
			{Bytes: 1 << 40, MissRate: 1},
		},
	}
}
