package adapt

import (
	"fmt"

	"ndpext/internal/policy"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
	"ndpext/internal/telemetry"
)

// Controller orchestrates one run's adaptive configuration: every epoch
// it asks each arm for a candidate allocation, shadow-scores all of
// them with the CostModel, converts the scores (plus an amortized
// migration penalty for candidates that would move rows) into rewards,
// updates the bandit, and returns the sampled arm's allocation for the
// system layer to install. It is single-threaded by design — Decide is
// called from the simulator's event-loop thread at epoch boundaries,
// never from the epoch worker goroutine, which is what keeps the pick
// sequence deterministic however the worker is scheduled.
type Controller struct {
	arms   []Arm
	model  CostModel
	bandit *bandit

	live     int
	epochs   int
	switches int
	picks    []uint64

	// Modeled end-to-end accounting (telemetry; never enters the
	// simulated energy breakdown).
	weightedNS   float64 // sum over epochs of liveScore * epochAccesses
	accTotal     uint64
	migratedRows uint64
	migrateNS    float64
	migratePJ    float64
	droppedItems int // actual items invalidated by arm-switch installs
}

// New builds a controller from the parameters, the bandit seed, and
// the machine's cost model.
func New(p Params, seed uint64, model CostModel) (*Controller, error) {
	arms, err := ParseArms(p.Arms)
	if err != nil {
		return nil, err
	}
	model.EnergyWeight = energyWeight
	return &Controller{
		arms:   arms,
		model:  model,
		bandit: newBandit(len(arms), decay, obsWeight, seed),
		live:   -1,
		picks:  make([]uint64, len(arms)),
	}, nil
}

// Decision is one epoch's outcome.
type Decision struct {
	Arm      string // live arm after this decision
	Index    int
	Switched bool
	Allocs   map[stream.ID]streamcache.Allocation
	// Scores are the per-arm shadow scores (modeled ns/access, before
	// the migration penalty), Means the posterior means after update —
	// both in arm order.
	Scores []float64
	Means  []float64
	// MovedRows is the migration estimate of installing the chosen arm
	// over the live allocation (0 when the arm did not switch).
	MovedRows uint64
}

// Decide runs one epoch of the bandit: candidates, shadow scores,
// posterior update, Thompson sample. live is the currently installed
// allocation of each profiled stream; epochAccesses the number of
// simulated accesses in the closing epoch (the amortization base for
// the migration penalty).
func (c *Controller) Decide(pcfg policy.Config, ins []policy.StreamInput, live map[stream.ID]streamcache.Allocation, epochAccesses uint64) (*Decision, error) {
	k := len(c.arms)
	cands := make([]map[stream.ID]streamcache.Allocation, k)
	base := make([]float64, k)
	penalized := make([]float64, k)
	moved := make([]uint64, k)
	for i, arm := range c.arms {
		a, err := arm.Decide(pcfg, ins)
		if err != nil {
			return nil, fmt.Errorf("adapt: arm %s: %w", arm.Name(), err)
		}
		cands[i] = a
		base[i] = c.model.Score(ins, a)
		moved[i] = MovedRows(live, a)
		penalized[i] = base[i]
		if epochAccesses > 0 {
			penalized[i] += float64(moved[i]) * migrateRowNS / float64(epochAccesses)
		}
	}
	c.bandit.update(rewards(penalized))
	samples := c.bandit.samples()
	next := 0
	for i, v := range samples {
		if v > samples[next] {
			next = i
		}
	}
	// Thompson hysteresis: posterior noise alone must not pay the
	// migration cost — a challenger has to beat the live arm's sample by
	// the configured margin to take over.
	if c.live >= 0 && next != c.live && samples[next] <= samples[c.live]+switchMargin {
		next = c.live
	}

	switched := c.live >= 0 && next != c.live
	if switched {
		c.switches++
		c.migratedRows += moved[next]
		c.migrateNS += float64(moved[next]) * migrateRowNS
		c.migratePJ += float64(moved[next]) * migrateRowPJ
	}
	c.weightedNS += base[next] * float64(epochAccesses)
	c.accTotal += epochAccesses
	c.picks[next]++
	c.epochs++
	c.live = next
	mv := uint64(0)
	if switched {
		mv = moved[next]
	}
	return &Decision{
		Arm:       c.arms[next].Name(),
		Index:     next,
		Switched:  switched,
		Allocs:    cands[next],
		Scores:    base,
		Means:     c.bandit.means(),
		MovedRows: mv,
	}, nil
}

// rewards maps per-arm costs (lower is better) into [0, 1] rewards
// (higher is better), normalized over this epoch's spread; equal costs
// yield the uninformative 0.5.
func rewards(costs []float64) []float64 {
	lo, hi := costs[0], costs[0]
	for _, v := range costs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]float64, len(costs))
	if hi-lo < 1e-9 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, v := range costs {
		out[i] = (hi - v) / (hi - lo)
	}
	return out
}

// NoteApply records the actual invalidation count of an arm-switch
// install (the migration model's ground truth from the reconfiguration
// machinery).
func (c *Controller) NoteApply(itemsDropped int) { c.droppedItems += itemsDropped }

// ActiveArm returns the live arm's name ("" before the first decision).
func (c *Controller) ActiveArm() string {
	if c.live < 0 {
		return ""
	}
	return c.arms[c.live].Name()
}

// Switches returns how many times the live arm changed.
func (c *Controller) Switches() int { return c.switches }

// ArmNames returns the configured arm names in bandit order.
func (c *Controller) ArmNames() []string {
	out := make([]string, len(c.arms))
	for i, a := range c.arms {
		out[i] = a.Name()
	}
	return out
}

// ModeledAMATNS is the run's access-weighted modeled AMAT including the
// charged migration cost — the end-to-end figure of merit the
// EXPERIMENTS.md adaptive sweep compares across arms.
func (c *Controller) ModeledAMATNS() float64 {
	if c.accTotal == 0 {
		return 0
	}
	return (c.weightedNS + c.migrateNS) / float64(c.accTotal)
}

// ReportTelemetry publishes the controller's counters under prefix
// ("adapt"): epochs, switch count, live arm index, migration cost, the
// modeled AMAT, and per-arm posterior means and pick counts.
func (c *Controller) ReportTelemetry(reg *telemetry.Registry, prefix string) {
	reg.PutUint(prefix+".epochs", uint64(c.epochs))
	reg.PutUint(prefix+".switches", uint64(c.switches))
	live := c.live
	if live < 0 {
		live = 0
	}
	reg.PutUint(prefix+".live_arm", uint64(live))
	reg.PutUint(prefix+".migrated_rows", c.migratedRows)
	reg.PutFloat(prefix+".migrate_ns", c.migrateNS)
	reg.PutFloat(prefix+".migrate_pj", c.migratePJ)
	reg.PutUint(prefix+".dropped_items", uint64(c.droppedItems))
	reg.PutFloat(prefix+".modeled_amat_ns", c.ModeledAMATNS())
	means := c.bandit.means()
	for i, a := range c.arms {
		reg.PutFloat(fmt.Sprintf("%s.arm.%s.mean", prefix, a.Name()), means[i])
		reg.PutUint(fmt.Sprintf("%s.arm.%s.picks", prefix, a.Name()), c.picks[i])
	}
}
