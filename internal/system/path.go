package system

import (
	"ndpext/internal/dram"
	"ndpext/internal/fault"
	"ndpext/internal/noc"
	"ndpext/internal/sim"
	"ndpext/internal/telemetry"
)

// pathDeps bundles the hardware and accounting shared by every memory
// path stage.
type pathDeps struct {
	cfg   *Config
	clock sim.Clock
	net   *noc.Network
	devs  []*dram.Device
	ext   *extPath
	tel   *telemetry.Counters

	// pipe receives each stream access for the host runtime's
	// samplers; nil for designs that do not profile.
	pipe *epochPipe

	// inj, when non-nil, injects faults; paths consult it to redirect
	// accesses whose home vault is offline to extended memory.
	inj *fault.Injector
}
