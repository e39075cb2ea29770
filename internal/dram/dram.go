// Package dram models DRAM device timing and energy at bank/row-buffer
// granularity. It provides the three parameter sets used by the paper's
// Table II: HBM3-style and HMC2-style NDP stack memory, and DDR5-4800
// extended memory behind the CXL controller.
//
// The model is open-page: each bank tracks its open row, and an access
// costs tCAS (row hit), tRCD+tCAS (row closed), or tRP+tRCD+tCAS (row
// conflict) plus data burst time, with ACT/PRE energy charged on
// activations. Bank occupancy is modelled with busy-until reservation, so
// accesses to a busy bank queue behind it.
package dram

import (
	"fmt"

	"ndpext/internal/fault"
	"ndpext/internal/sim"
)

// Params describes one DRAM technology.
type Params struct {
	Name     string
	FreqMHz  float64 // command/data clock
	TRCD     int     // activate-to-read, cycles
	TCAS     int     // read latency, cycles
	TRP      int     // precharge, cycles
	BurstCyc int     // data transfer cycles for one 64 B beat group
	RowBytes int     // row buffer size in bytes

	RDWRPJPerBit float64 // read/write energy per bit
	ACTPREnJ     float64 // activate+precharge energy per activation (nJ)
	StaticMWPerU float64 // static power per device unit, milliwatts

	// Optional refined timing (disabled when zero, keeping the base
	// model): TRAS enforces a minimum open time before precharge, and
	// RefreshInterval/RefreshDur periodically stall every bank (tREFI /
	// tRFC). These second-order effects cost simulation time for little
	// shape change, so the default parameter sets leave them off; enable
	// them for timing-sensitivity studies.
	TRAS            int      // activate-to-precharge minimum, cycles
	RefreshInterval sim.Time // tREFI; 0 disables refresh
	RefreshDur      sim.Time // tRFC
}

// Table II parameter sets.

// HBM3 returns the HBM3-style NDP stack memory parameters
// (1600 MHz, RCD-CAS-RP 24-24-24, 1.7 pJ/bit, 0.6 nJ ACT/PRE).
func HBM3() Params {
	return Params{
		Name: "HBM3", FreqMHz: 1600,
		TRCD: 24, TCAS: 24, TRP: 24,
		BurstCyc: 4, RowBytes: 2048,
		RDWRPJPerBit: 1.7, ACTPREnJ: 0.6, StaticMWPerU: 45,
	}
}

// HMC2 returns the HMC2-style NDP stack memory parameters
// (1250 MHz, RCD-CAS-RP 14-14-14).
func HMC2() Params {
	return Params{
		Name: "HMC2", FreqMHz: 1250,
		TRCD: 14, TCAS: 14, TRP: 14,
		BurstCyc: 4, RowBytes: 2048,
		RDWRPJPerBit: 1.7, ACTPREnJ: 0.6, StaticMWPerU: 45,
	}
}

// DDR5 returns the DDR5-4800 extended memory parameters
// (RCD-CAS-RP 40-40-40, 3.2 pJ/bit, 3.3 nJ ACT/PRE).
func DDR5() Params {
	return Params{
		Name: "DDR5-4800", FreqMHz: 2400,
		TRCD: 40, TCAS: 40, TRP: 40,
		BurstCyc: 8, RowBytes: 8192,
		RDWRPJPerBit: 3.2, ACTPREnJ: 3.3, StaticMWPerU: 120,
	}
}

// Stats aggregates device activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	Activations   uint64
	RefreshStalls uint64
	EnergyPJ      float64
	BusyTime      sim.Time
}

// Device is a collection of banks sharing one technology. One Device
// represents the memory region of one NDP unit, or one DDR channel of the
// extended memory.
type Device struct {
	params Params
	clock  sim.Clock
	banks  []bank
	bus    sim.Resource // shared data bus: bursts serialize across banks
	inj    *fault.Injector
	vault  int
	stats  Stats
}

type bank struct {
	res      sim.Resource
	openRow  int64    // -1 when closed
	openedAt sim.Time // when the current row was activated (tRAS)
}

// NewDevice builds a device with numBanks banks of technology p.
func NewDevice(p Params, numBanks int) *Device {
	if numBanks <= 0 {
		panic("dram: NewDevice requires at least one bank")
	}
	d := &Device{params: p, clock: sim.NewClock(p.FreqMHz), banks: make([]bank, numBanks)}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	return d
}

// SetFaults attaches a fault injector and identifies which NDP unit's
// vault this device backs, so Offline can answer vault-fail queries.
// nil (the default) disables injection.
func (d *Device) SetFaults(inj *fault.Injector, vault int) {
	d.inj = inj
	d.vault = vault
}

// SetClock attaches the run's clock to every bank and the bus (see
// sim.Resource.SetClock); no access may then arrive before it.
func (d *Device) SetClock(clock *sim.Time) {
	for i := range d.banks {
		d.banks[i].res.SetClock(clock)
	}
	d.bus.SetClock(clock)
}

// MaxLive reports the most reservations any one bank or the bus holds.
func (d *Device) MaxLive() int {
	m := d.bus.Live()
	for i := range d.banks {
		m = max(m, d.banks[i].res.Live())
	}
	return m
}

// Offline reports whether this device's vault is failed at time t.
// Callers (the memory path) must redirect accesses elsewhere; the model
// itself keeps working so off-path bookkeeping cannot crash.
func (d *Device) Offline(t sim.Time) bool {
	return d.inj != nil && d.inj.VaultFailed(d.vault, t)
}

// Params returns the device's technology parameters.
func (d *Device) Params() Params { return d.params }

// NumBanks reports the bank count.
func (d *Device) NumBanks() int { return len(d.banks) }

// Access performs one access of size bytes to the given row, returning the
// completion time. The bank is selected by row so consecutive rows
// interleave across banks. RowHit reports whether the row buffer was hit.
func (d *Device) Access(t sim.Time, row int64, bytes int, write bool) (done sim.Time, rowHit bool) {
	if row < 0 {
		panic(fmt.Sprintf("dram: negative row %d", row))
	}
	b := &d.banks[int(row)%len(d.banks)]
	p := &d.params

	// Refresh: align t past any overlapping refresh window (tREFI/tRFC).
	if p.RefreshInterval > 0 && p.RefreshDur > 0 {
		phase := t % p.RefreshInterval
		if phase < p.RefreshDur {
			t += p.RefreshDur - phase
			d.stats.RefreshStalls++
		}
	}

	var cycles int64
	switch {
	case b.openRow == row:
		cycles = int64(p.TCAS)
		rowHit = true
		d.stats.RowHits++
	case b.openRow == -1:
		cycles = int64(p.TRCD + p.TCAS)
		d.stats.Activations++
		d.stats.EnergyPJ += p.ACTPREnJ * 1000 // nJ -> pJ
	default:
		// tRAS: the open row must have been active long enough before
		// it may be precharged.
		if p.TRAS > 0 {
			if earliest := b.openedAt + d.clock.Cycles(int64(p.TRAS)); t < earliest {
				t = earliest
			}
		}
		cycles = int64(p.TRP + p.TRCD + p.TCAS)
		d.stats.Activations++
		d.stats.EnergyPJ += p.ACTPREnJ * 1000
	}
	if b.openRow != row {
		b.openedAt = t
	}
	b.openRow = row

	// Burst time scales with the transfer size relative to a 64 B beat group.
	beats := (bytes + 63) / 64
	burst := d.clock.Cycles(int64(p.BurstCyc * beats))
	cycles += int64(p.BurstCyc * beats)

	dur := d.clock.Cycles(cycles)
	_, bankEnd := b.res.Acquire(t, dur)
	// The device's data bus is shared by all banks: row activations
	// overlap, but data bursts serialize. This is what throughput-binds
	// a channel when many cores hammer it.
	_, done = d.bus.Acquire(bankEnd-burst, burst)
	d.stats.BusyTime += dur

	d.stats.EnergyPJ += float64(bytes*8) * p.RDWRPJPerBit
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return done, rowHit
}

// RawLatency reports the unloaded latency of an access with the given
// row-buffer outcome, for analytical components (e.g. attenuation factors
// in the placement policy).
func (d *Device) RawLatency(rowHit bool, bytes int) sim.Time {
	p := &d.params
	cycles := int64(p.TCAS)
	if !rowHit {
		cycles += int64(p.TRCD)
	}
	cycles += int64(p.BurstCyc * ((bytes + 63) / 64))
	return d.clock.Cycles(cycles)
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// Reset clears bank state and statistics.
func (d *Device) Reset() {
	for i := range d.banks {
		d.banks[i].res.Reset()
		d.banks[i].openRow = -1
	}
	d.bus.Reset()
	d.stats = Stats{}
}
