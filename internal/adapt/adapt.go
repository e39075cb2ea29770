// Package adapt implements NDPExt-MAB: bandit-driven online selection
// of the epoch configuration policy. Instead of trusting one fixed
// configurator, the host runtime keeps a set of candidate policies
// ("arms") — the paper's max-flow optimizer plus cheaper heuristics with
// different bias — and every epoch scores what each arm *would* have
// installed against the freshly harvested miss curves (shadow
// evaluation: a modeled AMAT + energy estimate, no second simulation).
// A seeded Thompson-sampling bandit over the per-epoch rewards picks
// the live arm; switching arms pays a modeled migration penalty,
// so the bandit only chases a better policy when the gap covers the
// reconfiguration cost.
//
// Everything here is deterministic given the bandit seed: the arms are
// deterministic functions of their inputs, the evaluator iterates in
// sorted order, and the sampler draws from the simulator's seeded RNG.
// Identical Config (including seed and arm set) therefore yields
// byte-identical results, keeping content-addressed caching sound.
package adapt

import (
	"fmt"
	"sort"
	"strings"

	"ndpext/internal/policy"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// DefaultArms is the arm set used when Params.Arms is empty, in bandit
// index order.
const DefaultArms = "paper,static,greedy,replicate"

// Params tunes the adaptive controller. The zero value selects all four
// arms. Every field is a scalar or string so the struct canonicalizes
// deterministically with %+v inside system.Config.CanonicalBytes.
type Params struct {
	// Arms is the comma-separated arm list ("" = DefaultArms). Order is
	// the bandit index order; a single name degenerates to that fixed
	// policy run through the same scoring machinery (the fixed-arm
	// baselines of the EXPERIMENTS.md sweep).
	Arms string
}

// The controller's fixed migration model and bandit tuning.
const (
	// migrateRowNS is the modeled latency cost of refilling one moved
	// DRAM-cache row after an arm switch (charged per moved row,
	// amortized over the epoch's accesses when scoring).
	migrateRowNS = 200.0
	// migrateRowPJ is the modeled energy per moved row (telemetry only;
	// it never enters the simulated energy.Breakdown, whose total must
	// stay the exact sum of its simulated components).
	migrateRowPJ = 2000.0
	// decay is the per-epoch discount on the Beta posteriors, so the
	// bandit tracks phase changes instead of averaging over them.
	decay = 0.9
	// obsWeight is the pseudo-count each epoch's observation adds to a
	// posterior. Shadow evaluation is full-information — every arm is
	// scored every epoch, not just the pulled one — so posteriors may
	// tighten faster than a one-pull bandit's.
	obsWeight = 4.0
	// switchMargin is the Thompson hysteresis: a challenger's sampled
	// value must exceed the live arm's by this margin before the bandit
	// switches, so posterior noise alone never pays the migration cost.
	switchMargin = 0.02
	// energyWeight converts the modeled per-access energy (pJ) into the
	// score's ns axis: a small tie-breaking weight.
	energyWeight = 0.001
)

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	_, err := ParseArms(p.Arms)
	return err
}

// Arm is one candidate configuration policy: a deterministic function
// from the epoch's profiles to a full allocation, with the same
// contract as policy.Optimize (writable streams single-group, dead
// units empty, per-unit capacity respected).
type Arm interface {
	Name() string
	Decide(cfg policy.Config, ins []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error)
}

// armNames lists the registered arm constructors in canonical order.
var armNames = []string{"paper", "static", "greedy", "replicate"}

func newArm(name string) (Arm, bool) {
	switch name {
	case "paper":
		return paperArm{}, true
	case "static":
		return staticArm{}, true
	case "greedy":
		return greedyArm{}, true
	case "replicate":
		return replicateArm{}, true
	}
	return nil, false
}

// ParseArms resolves a comma-separated arm list ("" = DefaultArms).
// Duplicates are rejected: each arm owns one bandit index.
func ParseArms(s string) ([]Arm, error) {
	if s == "" {
		s = DefaultArms
	}
	seen := map[string]bool{}
	var arms []Arm
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("adapt: duplicate arm %q", name)
		}
		seen[name] = true
		a, ok := newArm(name)
		if !ok {
			return nil, fmt.Errorf("adapt: unknown arm %q (valid: %s)", name, strings.Join(armNames, ", "))
		}
		arms = append(arms, a)
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("adapt: empty arm list %q", s)
	}
	return arms, nil
}

// paperArm wraps the paper's Algorithm 1 max-flow optimizer — the
// expensive, high-quality arm.
type paperArm struct{}

func (paperArm) Name() string { return "paper" }

func (paperArm) Decide(cfg policy.Config, ins []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	allocs, _, err := policy.Optimize(cfg, ins)
	return allocs, err
}

// staticArm is the equal even-split of the NDPExt-static baseline:
// oblivious to the profile, but free of churn and never wrong by more
// than its bias.
type staticArm struct{}

func (staticArm) Name() string { return "static" }

func (staticArm) Decide(cfg policy.Config, ins []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	allocs, err := policy.StaticEqual(cfg, ins)
	if err != nil {
		return nil, err
	}
	cfg.DropDeadUnits(allocs)
	return allocs, nil
}

// greedyArm sizes by recency: each unit's rows are split among the
// streams accessing it, proportionally to their decayed access weight
// at that unit, all streams single-group. It reacts instantly to a
// phase change (the very property the paper's damped optimizer trades
// away) at the price of ignoring miss curves entirely.
type greedyArm struct{}

func (greedyArm) Name() string { return "greedy" }

func (greedyArm) Decide(cfg policy.Config, ins []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumUnits
	dead := deadSet(cfg)
	wTot := make([]float64, n)
	for i := range ins {
		for u, a := range ins[i].Acc {
			if !dead[u] {
				wTot[u] += float64(a)
			}
		}
	}
	order := accessedByID(ins)
	out := make(map[stream.ID]streamcache.Allocation, len(order))
	nextRow := make([]uint32, n)
	affineLeft := affineBudget(cfg)
	for _, in := range order {
		a := streamcache.NewAllocation(n)
		for _, u := range in.Accessors() {
			if dead[u] || wTot[u] == 0 {
				continue
			}
			rows := uint32(float64(cfg.UnitRows) * float64(in.Acc[u]) / wTot[u])
			if rows == 0 {
				rows = 1
			}
			rows = capRows(rows, cfg.UnitRows, nextRow[u], in.Affine, &affineLeft[u])
			if rows == 0 {
				continue
			}
			a.Shares[u] = rows
			a.RowBase[u] = nextRow[u]
			nextRow[u] += rows
		}
		out[in.SID] = a
	}
	return out, nil
}

// replicateArm is replication-heavy: every read-only stream gets one
// replication group per accessing unit (up to MaxGroups), each accessor
// holding a local copy sized to its fair share of the unit. Writable
// streams stay single-group (§IV-B). It wins when hot read-only data is
// reused per-core (interconnect hops dominate) and loses capacity when
// it is not.
type replicateArm struct{}

func (replicateArm) Name() string { return "replicate" }

func (replicateArm) Decide(cfg policy.Config, ins []policy.StreamInput) (map[stream.ID]streamcache.Allocation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumUnits
	dead := deadSet(cfg)
	cnt := make([]int, n) // streams accessing each live unit
	for i := range ins {
		for u := range ins[i].Acc {
			if !dead[u] {
				cnt[u]++
			}
		}
	}
	order := accessedByID(ins)
	out := make(map[stream.ID]streamcache.Allocation, len(order))
	nextRow := make([]uint32, n)
	affineLeft := affineBudget(cfg)
	for _, in := range order {
		accs := in.Accessors()
		live := accs[:0:0]
		for _, u := range accs {
			if !dead[u] {
				live = append(live, u)
			}
		}
		a := streamcache.NewAllocation(n)
		if len(live) == 0 {
			out[in.SID] = a
			continue
		}
		k := 1
		if in.ReadOnly {
			k = len(live)
			if k > cfg.MaxGroups {
				k = cfg.MaxGroups
			}
		}
		for i, u := range live {
			a.Groups[u] = uint8(i * k / len(live))
			share := cfg.UnitRows / uint32(cnt[u])
			if share == 0 {
				share = 1
			}
			share = capRows(share, cfg.UnitRows, nextRow[u], in.Affine, &affineLeft[u])
			if share == 0 {
				continue
			}
			a.Shares[u] = share
			a.RowBase[u] = nextRow[u]
			nextRow[u] += share
		}
		// Non-accessors read from the nearest accessor's group
		// (nearest by unit index, a proxy for NoC distance).
		for u := 0; u < n; u++ {
			if _, ok := in.Acc[u]; ok && !dead[u] {
				continue
			}
			best, bestD := live[0], abs(u-live[0])
			for _, v := range live[1:] {
				if d := abs(u - v); d < bestD {
					best, bestD = v, d
				}
			}
			a.Groups[u] = a.Groups[best]
		}
		out[in.SID] = a
	}
	return out, nil
}

// deadSet turns the config's dead-unit list into a lookup set.
func deadSet(cfg policy.Config) map[int]bool {
	if len(cfg.DeadUnits) == 0 {
		return nil
	}
	m := make(map[int]bool, len(cfg.DeadUnits))
	for _, u := range cfg.DeadUnits {
		m[u] = true
	}
	return m
}

// affineBudget returns the per-unit affine row budget (§IV-C cap).
func affineBudget(cfg policy.Config) []uint32 {
	budget := cfg.AffineCapRows
	if budget == 0 || budget > cfg.UnitRows {
		budget = cfg.UnitRows
	}
	out := make([]uint32, cfg.NumUnits)
	for u := range out {
		out[u] = budget
	}
	return out
}

// capRows clamps a planned share to the unit's remaining capacity and,
// for affine streams, to the remaining affine budget (decremented on
// success).
func capRows(rows, unitRows, used uint32, affine bool, affineLeft *uint32) uint32 {
	if used >= unitRows {
		return 0
	}
	if rem := unitRows - used; rows > rem {
		rows = rem
	}
	if affine {
		if rows > *affineLeft {
			rows = *affineLeft
		}
		*affineLeft -= rows
	}
	return rows
}

// accessedByID returns the inputs with accesses, ascending by stream ID
// (the deterministic iteration order every arm shares).
func accessedByID(ins []policy.StreamInput) []*policy.StreamInput {
	out := make([]*policy.StreamInput, 0, len(ins))
	for i := range ins {
		if len(ins[i].Acc) > 0 {
			out = append(out, &ins[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
