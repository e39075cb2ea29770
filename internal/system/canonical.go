package system

import (
	"bytes"
	"fmt"
)

// canonicalVersion tags the canonical serialization format. Bump it
// whenever the layout below (or the meaning of a serialized field)
// changes, so stale content-addressed cache entries miss instead of
// aliasing results from a different simulator semantics.
const canonicalVersion = "ndpext-config/v4"

// CanonicalBytes returns a deterministic, versioned serialization of
// every simulation-affecting field of the configuration. Two configs
// with equal CanonicalBytes produce bit-identical simulations of the
// same trace; the hooks (OnEpoch, Probe) are deliberately excluded
// because they cannot change simulated results. The output is the hashing input for
// content-addressed result caching — it is stable across processes and
// machines for a given format version, but is not a decodable wire
// format.
//
// The cycle budget IS included: MaxCycles changes where a run truncates.
// A wall-clock limit is a context deadline, never part of the config.
func (c Config) CanonicalBytes() []byte {
	var b bytes.Buffer
	b.WriteString(canonicalVersion)
	// The nested parameter structs (dram.Params, noc.Config, cxl.Config,
	// streamcache.Params, sampler.Config) hold only scalars, so %+v
	// renders them deterministically in declaration order.
	fmt.Fprintf(&b, "|design=%d", int(c.Design))
	fmt.Fprintf(&b, "|mem=%+v", c.Mem)
	fmt.Fprintf(&b, "|noc=%+v", c.NoC)
	fmt.Fprintf(&b, "|cxl=%+v", c.CXL)
	fmt.Fprintf(&b, "|freq=%g|l1=%d/%d/%d/%d", c.CoreFreqMHz, c.L1Bytes, c.L1Assoc, c.L1LineBytes, c.L1LatCycles)
	fmt.Fprintf(&b, "|rows=%d|banks=%d", c.UnitRows, c.BanksPerUnit)
	fmt.Fprintf(&b, "|stream=%+v", c.Stream)
	fmt.Fprintf(&b, "|sampler=%+v", c.Sampler)
	fmt.Fprintf(&b, "|epoch=%d|reconfig=%d|partial=%d|chash=%t",
		c.EpochCycles, int(c.Reconfig), c.PartialEpochs, c.ConsistentHash)
	fmt.Fprintf(&b, "|slb=%d/%v|meta=%d|wex=%v",
		c.SLBLatCycles, c.SLBMissPenalty, c.MetaLatCycles, c.WriteExceptionLat)
	fmt.Fprintf(&b, "|host=%d/%d/%d/%d/%d",
		c.HostCores, c.HostLLCBytes, c.HostLLCAssoc, c.HostLLCLat, c.HostNoCLat)
	fmt.Fprintf(&b, "|static=%g", c.CoreStaticMW)
	// adapt.Params holds only scalars and strings, so %+v is
	// deterministic; the bandit seed rides next to it because both only
	// matter to the NDPExt-MAB design but must always key the cache.
	fmt.Fprintf(&b, "|adapt=%+v|bseed=%d", c.Adapt, c.BanditSeed)
	fmt.Fprintf(&b, "|faults=%s|fseed=%d", c.Faults.String(), c.FaultSeed)
	fmt.Fprintf(&b, "|maxcycles=%d", c.MaxCycles)
	fmt.Fprintf(&b, "|seed=%d", c.Seed)
	return b.Bytes()
}
