package nuca

import (
	"fmt"
	"sort"

	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// Configure derives the epoch's allocations for the given baseline kind
// from the profiled stream inputs (the same profiles NDPExt uses: these
// baselines also size partitions with miss curves; §VI adapts them to
// the DRAM cache). cfg is the configuration Algorithm 1 takes: its
// Attenuation is the proximity weight of a unit as seen from an
// accessor, and Nexus prices a miss as MissLatNS over HitLatNS. The
// configurators have no dead-unit notion of their own, so the shares
// they place on cfg.DeadUnits are dropped.
func Configure(kind Kind, cfg policy.Config, streams []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var allocs map[stream.ID]streamcache.Allocation
	switch kind {
	case StaticInterleave:
		return map[stream.ID]streamcache.Allocation{}, nil
	case Jigsaw:
		allocs = configureJigsaw(cfg, streams)
	case Whirlpool:
		allocs = configurePartitioned(cfg, streams)
	case Nexus:
		allocs = configureNexus(cfg, streams)
	default:
		return nil, fmt.Errorf("nuca: unknown kind %v", kind)
	}
	cfg.DropDeadUnits(allocs)
	return allocs, nil
}

// sizeByLookahead runs the classic UCP/Jigsaw lookahead on the aggregate
// miss curves: repeatedly give the stream with the steepest slope its
// best jump until the global space or the utility runs out. Returns rows
// per stream. degreeOf scales the effective capacity a stream needs (a
// stream replicated R times needs R times the rows for the same curve
// position). The streams' SIDs are distinct.
func sizeByLookahead(in policy.Config, streams []policy.StreamInput, degreeOf func(policy.StreamInput) int) map[stream.ID]uint64 {
	totalRows := uint64(in.NumUnits) * uint64(in.UnitRows)
	// Leave the misc partition's reservation alone.
	reserve := uint64(in.NumUnits) * uint64(miscRows(in.UnitRows))
	if totalRows > reserve {
		totalRows -= reserve
	}
	rows := make(map[stream.ID]uint64)
	la := make([]lookahead, len(streams))
	for i := range streams {
		s := &streams[i]
		l := &la[i]
		if l.acc = totalAcc(*s); l.acc == 0 {
			continue
		}
		l.deg = 1
		if degreeOf != nil {
			l.deg = degreeOf(*s)
		}
		l.atPoint = make([]float64, len(s.Curve.Points))
		for j, p := range s.Curve.Points {
			l.atPoint[j] = s.Curve.MissRateAt(p.Bytes)
		}
		l.refresh(in, s.Curve, 0)
	}
	var used uint64
	for {
		// Strict > in stream, then point order: the first of equal
		// slopes wins.
		best, bestSlope, bestRows := -1, 0.0, uint64(0)
		for i := range la {
			for _, c := range la[i].cands {
				if used+c.rows <= totalRows && c.slope > bestSlope {
					best, bestSlope, bestRows = i, c.slope, c.rows
				}
			}
		}
		if best < 0 {
			return rows
		}
		sid := streams[best].SID
		rows[sid] += bestRows
		used += bestRows
		la[best].refresh(in, streams[best].Curve, rows[sid])
	}
}

// lookahead is one stream's state in sizeByLookahead.
type lookahead struct {
	acc     uint64    // the stream's accesses; 0 takes no rows
	deg     int       // copies the stream's rows hold
	atPoint []float64 // the curve's MissRateAt at each of its points
	cands   []jump    // the jumps from the current rows, in point order
}

// jump is a move to a larger curve point: the rows it adds and the
// accesses it saves per row.
type jump struct {
	rows  uint64
	slope float64
}

// refresh recomputes l.cands for a stream holding rows rows: a jump to
// every curve point beyond the current per-copy capacity that lowers the
// miss rate and adds at least one row.
func (l *lookahead) refresh(in policy.Config, c sampler.Curve, rows uint64) {
	l.cands = l.cands[:0]
	cur := int64(rows) * int64(in.RowBytes) / int64(l.deg)
	mrCur := c.MissRateAt(cur)
	for j, p := range c.Points {
		if p.Bytes <= cur {
			continue
		}
		d := mrCur - l.atPoint[j]
		if d <= 0 {
			continue
		}
		jumpRows := uint64((p.Bytes-cur)*int64(l.deg)+int64(in.RowBytes)-1) / uint64(in.RowBytes)
		if jumpRows == 0 {
			continue
		}
		l.cands = append(l.cands, jump{rows: jumpRows, slope: float64(l.acc) * d / float64(jumpRows)})
	}
}

// placeCenterOfMass fills each stream's partition onto the units nearest
// its accessors' center of mass, in descending access order (the greedy
// placement of Jigsaw/CDCS the paper contrasts with: hot partitions claim
// the central units, the rest settle for suboptimal spots).
func placeCenterOfMass(in policy.Config, streams []policy.StreamInput, rows map[stream.ID]uint64,
	spread map[stream.ID]bool, groupsOf func(policy.StreamInput) int) map[stream.ID]streamcache.Allocation {

	free := make([]int64, in.NumUnits)
	nextRow := make([]uint32, in.NumUnits)
	for u := range free {
		free[u] = int64(in.UnitRows)
		if r := int64(miscRows(in.UnitRows)); free[u] > r {
			free[u] -= r // misc partition reservation
		}
	}
	// Hot streams place first.
	order := make([]int, 0, len(streams))
	for i := range streams {
		if rows[streams[i].SID] > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := totalAcc(streams[order[a]]), totalAcc(streams[order[b]])
		if ta != tb {
			return ta > tb
		}
		return streams[order[a]].SID < streams[order[b]].SID
	})

	out := make(map[stream.ID]streamcache.Allocation)
	for _, i := range order {
		s := streams[i]
		need := rows[s.SID]
		a := streamcache.NewAllocation(in.NumUnits)
		if spread[s.SID] {
			// Shared data: interleave uniformly (Jigsaw's global
			// partition for multi-thread data).
			per := need / uint64(in.NumUnits)
			rem := need % uint64(in.NumUnits)
			for u := 0; u < in.NumUnits; u++ {
				want := per
				if uint64(u) < rem {
					want++
				}
				got := want
				if int64(got) > free[u] {
					got = uint64(free[u])
				}
				a.Shares[u] = uint32(got)
				a.RowBase[u] = nextRow[u]
				nextRow[u] += uint32(got)
				free[u] -= int64(got)
			}
			out[s.SID] = a
			continue
		}
		groups := 1
		if groupsOf != nil {
			groups = groupsOf(s)
		}
		if groups < 1 {
			groups = 1
		}
		members := clusterUnits(in.NumUnits, groups)
		perGroup := need / uint64(groups)
		accessors := s.Accessors()
		for gi, us := range members {
			// Rank the group's units by proximity to the stream's
			// accessors (weighted by access counts).
			ranked := make([]rankedUnit, len(us))
			for i, u := range us {
				ranked[i] = rankedUnit{unit: u, weight: comWeight(in, s, accessors, u)}
			}
			sort.Slice(ranked, func(x, y int) bool {
				if ranked[x].weight != ranked[y].weight {
					return ranked[x].weight > ranked[y].weight
				}
				return ranked[x].unit < ranked[y].unit
			})
			left := perGroup
			for _, ru := range ranked {
				u := ru.unit
				if left == 0 {
					break
				}
				got := left
				if int64(got) > free[u] {
					got = uint64(free[u])
				}
				if got == 0 {
					continue
				}
				a.Shares[u] = uint32(got)
				a.RowBase[u] = nextRow[u]
				nextRow[u] += uint32(got)
				free[u] -= int64(got)
				left -= got
			}
			for _, u := range us {
				a.Groups[u] = uint8(gi)
			}
		}
		out[s.SID] = a
	}
	return out
}

// totalAcc sums a stream's access counts.
func totalAcc(s policy.StreamInput) uint64 {
	var t uint64
	for _, a := range s.Acc {
		t += a
	}
	return t
}

// rankedUnit is a unit with its center-of-mass weight for one stream.
type rankedUnit struct {
	unit   int
	weight float64
}

// comWeight scores unit v by proximity to s's accessors, which are
// given in sorted order for a deterministic floating-point sum.
func comWeight(in policy.Config, s policy.StreamInput, accessors []int, v int) float64 {
	var w float64
	for _, u := range accessors {
		w += float64(s.Acc[u]) * in.Attenuation(u, v)
	}
	return w
}

// clusterUnits splits the unit IDs into n contiguous clusters (unit IDs
// are spatially ordered, so contiguous ranges are physically close).
func clusterUnits(numUnits, n int) [][]int {
	if n > numUnits {
		n = numUnits
	}
	out := make([][]int, n)
	for g := 0; g < n; g++ {
		lo, hi := g*numUnits/n, (g+1)*numUnits/n
		for u := lo; u < hi; u++ {
			out[g] = append(out[g], u)
		}
	}
	return out
}

// configureJigsaw sizes by lookahead and spreads multi-accessor streams
// (Jigsaw's shared partitions) while placing single-accessor streams at
// their core.
func configureJigsaw(in policy.Config, streams []policy.StreamInput) map[stream.ID]streamcache.Allocation {
	rows := sizeByLookahead(in, streams, nil)
	spread := map[stream.ID]bool{}
	for _, s := range streams {
		if len(s.Acc) > 1 {
			spread[s.SID] = true
		}
	}
	return placeCenterOfMass(in, streams, rows, spread, nil)
}

// configurePartitioned is Whirlpool: per-stream partitions with
// center-of-mass placement, no replication.
func configurePartitioned(in policy.Config, streams []policy.StreamInput) map[stream.ID]streamcache.Allocation {
	rows := sizeByLookahead(in, streams, nil)
	return placeCenterOfMass(in, streams, rows, nil, nil)
}

// configureNexus is Whirlpool plus a single global replication degree for
// read-only streams, chosen by estimating miss cost against replica
// distance across the candidate degrees 1, 2, 4 and 8.
func configureNexus(in policy.Config, streams []policy.StreamInput) map[stream.ID]streamcache.Allocation {
	missPenalty := in.MissLatNS / in.HitLatNS
	bestDeg, bestCost := 1, 0.0
	for i, d := range []int{1, 2, 4, 8} {
		if d > in.NumUnits || d > in.MaxGroups {
			continue
		}
		cost := nexusCost(in, streams, d, missPenalty)
		if i == 0 || cost < bestCost {
			bestDeg, bestCost = d, cost
		}
	}
	degreeOf := func(s policy.StreamInput) int {
		if s.ReadOnly {
			return bestDeg
		}
		return 1
	}
	rows := sizeByLookahead(in, streams, degreeOf)
	return placeCenterOfMass(in, streams, rows, nil, degreeOf)
}

// nexusCost estimates the cost of a global replication degree: replicas
// shrink each copy (raising miss rate, paying missPenalty) but cut the
// distance to the nearest replica (estimated from cluster proximity):
// cost = missRate*missPenalty + (1-missRate)*remoteDist per access.
func nexusCost(in policy.Config, streams []policy.StreamInput, degree int, missPenalty float64) float64 {
	clusters := clusterUnits(in.NumUnits, degree)
	var cost float64
	for _, s := range streams {
		acc := totalAcc(s)
		if acc == 0 {
			continue
		}
		deg := 1
		if s.ReadOnly {
			deg = degree
		}
		// Assume a fair share of total capacity for the estimate.
		fair := uint64(in.NumUnits) * uint64(in.UnitRows) / uint64(max(len(streams), 1))
		perCopy := int64(fair) * int64(in.RowBytes) / int64(deg)
		mr := s.Curve.MissRateAt(perCopy)
		// Average closeness of each accessor to its nearest replica
		// cluster's center (sorted iteration: deterministic FP sum).
		var close float64
		for _, u := range s.Accessors() {
			best := 0.0
			for _, cl := range clusters {
				center := cl[len(cl)/2]
				if p := in.Attenuation(u, center); p > best {
					best = p
				}
			}
			close += float64(s.Acc[u]) * best
		}
		close /= float64(acc)
		cost += float64(acc) * (mr*missPenalty + (1-mr)*(1-close))
	}
	return cost
}
