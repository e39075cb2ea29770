package adapt

import (
	"sort"

	"ndpext/internal/policy"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// CostModel holds the machine constants the shadow evaluator needs to
// turn an allocation plus the epoch's miss curves into a modeled
// average access time (ns) and energy (pJ). The system layer fills it
// from the same latency/energy sources the simulator itself uses, so
// shadow scores and simulated outcomes move together.
type CostModel struct {
	RowBytes int
	// DramHitNS is the DRAM-cache hit service time at the serving unit.
	DramHitNS float64
	// MissNS is the extended-memory round trip a DRAM-cache miss pays.
	MissNS float64
	// NetNS returns the interconnect latency from accessor u to unit v
	// (0 for u == v).
	NetNS func(u, v int) float64
	// HitPJ / MissPJ are the modeled per-access energies of the two
	// outcomes, weighted into the score by energyWeight.
	HitPJ, MissPJ float64
	// EnergyWeight converts pJ to the score's ns axis.
	EnergyWeight float64
}

// Score computes the access-weighted modeled AMAT (ns per access, plus
// the weighted energy term) of installing allocs for the profiled
// epoch. Each accessor pays its replication group's miss rate — the
// global curve when the stream is shared, the per-core curve when it is
// replicated (splitting accessors destroys cross-core reuse, §V-C) —
// and hits travel to the nearest unit of its group holding rows.
// Streams or groups without any allocated rows miss every access.
// Iteration is in sorted (stream, unit) order so the floating-point sum
// is deterministic.
func (m CostModel) Score(ins []policy.StreamInput, allocs map[stream.ID]streamcache.Allocation) float64 {
	var total float64
	var accTotal uint64
	for _, in := range accessedByID(ins) {
		a, ok := allocs[in.SID]
		groups := 0
		if ok {
			groups = len(a.GroupIDs())
		}
		curve := in.Curve
		if groups > 1 && len(in.LocalCurve.Points) > 0 {
			curve = in.LocalCurve
		}
		for _, u := range in.Accessors() {
			w := float64(in.Acc[u])
			accTotal += in.Acc[u]
			mr := 1.0
			hitNet := 0.0
			if ok && groups > 0 && u < len(a.Groups) {
				g := a.Groups[u]
				groupBytes := int64(a.GroupRows(g)) * int64(m.RowBytes)
				if groupBytes > 0 {
					mr = curve.MissRateAt(groupBytes)
					hitNet = m.nearestNS(u, a, g)
				}
			}
			cost := mr*m.MissNS + (1-mr)*(m.DramHitNS+hitNet)
			epj := mr*m.MissPJ + (1-mr)*m.HitPJ
			total += w * (cost + m.EnergyWeight*epj)
		}
	}
	if accTotal == 0 {
		return 0
	}
	return total / float64(accTotal)
}

// nearestNS is the interconnect latency from accessor u to the nearest
// unit of group g holding rows.
func (m CostModel) nearestNS(u int, a streamcache.Allocation, g uint8) float64 {
	best := -1.0
	for v := range a.Shares {
		if a.Shares[v] == 0 || a.Groups[v] != g {
			continue
		}
		lat := 0.0
		if m.NetNS != nil {
			lat = m.NetNS(u, v)
		}
		if best < 0 || lat < best {
			best = lat
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// MovedRows estimates the DRAM-cache rows that must be refilled when
// replacing the live allocation with cand: rows a unit gains, plus rows
// it keeps while its replication group id changes (the consistent-hash
// ring is rebuilt, so retained capacity still refills). This is the
// migration model's unit of charge.
func MovedRows(live, cand map[stream.ID]streamcache.Allocation) uint64 {
	var moved uint64
	for _, sid := range unionSIDs(live, cand) {
		o := live[sid]
		n := cand[sid]
		units := len(o.Shares)
		if len(n.Shares) > units {
			units = len(n.Shares)
		}
		for u := 0; u < units; u++ {
			var os, ns uint32
			var og, ng uint8
			if u < len(o.Shares) {
				os, og = o.Shares[u], o.Groups[u]
			}
			if u < len(n.Shares) {
				ns, ng = n.Shares[u], n.Groups[u]
			}
			if ns > os {
				moved += uint64(ns - os)
			}
			if og != ng {
				kept := os
				if ns < kept {
					kept = ns
				}
				moved += uint64(kept)
			}
		}
	}
	return moved
}

// unionSIDs returns the sorted union of the two maps' keys.
func unionSIDs(a, b map[stream.ID]streamcache.Allocation) []stream.ID {
	seen := make(map[stream.ID]bool, len(a)+len(b))
	var out []stream.ID
	for sid := range a {
		if !seen[sid] {
			seen[sid] = true
			out = append(out, sid)
		}
	}
	for sid := range b {
		if !seen[sid] {
			seen[sid] = true
			out = append(out, sid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
