// Package cxl models the CXL.mem Type-3 extended memory device of the
// NDPExt architecture: a direct-attached, multi-headed memory expander
// reached from the NDP stacks through a central CXL controller (paper
// Fig. 1, Table II).
//
// An access pays the CXL link latency in each direction, reserves link
// bandwidth for its payload, and performs a DDR5 access on one of the
// device's memory channels. Link energy is charged per bit.
package cxl

import (
	"fmt"

	"ndpext/internal/dram"
	"ndpext/internal/fault"
	"ndpext/internal/sim"
)

// Config describes the extended memory device.
type Config struct {
	LinkLatency sim.Time // one-way link latency (excluding DRAM access)
	LinkGBps    float64  // link bandwidth per direction
	PJPerBit    float64  // link transfer energy

	Channels        int // DDR channels on the device
	BanksPerChannel int // banks per channel (ranks folded in)
	DRAM            dram.Params
}

// DefaultConfig returns the Table II extended memory: a 16-lane CXL port
// with 200 ns link latency and 11.4 pJ/bit, backed by four DDR5-4800
// channels of 2 ranks x 16 banks.
func DefaultConfig() Config {
	return Config{
		LinkLatency:     sim.FromNS(200),
		LinkGBps:        64,
		PJPerBit:        11.4,
		Channels:        4,
		BanksPerChannel: 32,
		DRAM:            dram.DDR5(),
	}
}

// The paper's §III-A notes that the extended memory could instead be
// traditional DIMMs wired to the NDP module, or the host's own memory
// reached by relaying through the host processor. These presets model
// those alternatives for the attach-technology ablation.

// DIMMConfig models directly-attached DDR5 DIMMs: a short electrical
// path (~20 ns), one DDR5-4800 channel's bandwidth per link, and DDR I/O
// energy instead of SerDes energy. It trades the CXL link latency for
// far fewer expansion channels and pins (§II-A's pin argument).
func DIMMConfig() Config {
	c := DefaultConfig()
	c.LinkLatency = sim.FromNS(20)
	c.LinkGBps = 38.4 // one DDR5-4800 channel per attach point
	c.PJPerBit = 4.0
	c.Channels = 2 // pin budget halves the channels
	return c
}

// HostRelayConfig models reusing the host's memory by relaying every
// access through the host processor over PCIe: two PCIe crossings plus
// host-side handling (~600 ns), with host DRAM behind it.
func HostRelayConfig() Config {
	c := DefaultConfig()
	c.LinkLatency = sim.FromNS(600)
	c.LinkGBps = 32
	c.PJPerBit = 17.0 // two SerDes crossings
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("cxl: channels and banks must be positive")
	}
	// Bound the organization so a corrupt config cannot demand an absurd
	// allocation.
	if c.Channels > 1<<12 || c.BanksPerChannel > 1<<16 {
		return fmt.Errorf("cxl: organization %dx%d exceeds supported bounds", c.Channels, c.BanksPerChannel)
	}
	if c.LinkGBps <= 0 {
		return fmt.Errorf("cxl: link bandwidth must be positive")
	}
	return nil
}

// Stats aggregates device activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	LinkEnergyPJ float64
	LinkBusy     sim.Time
}

// Device is one CXL extended memory module. Not safe for concurrent use.
type Device struct {
	cfg   Config
	down  sim.Resource // NDP -> device (requests, write payloads)
	up    sim.Resource // device -> NDP (read payloads, acks)
	chans []*dram.Device
	inj   *fault.Injector
	stats Stats
}

// NewChecked builds a device from cfg, returning an error on invalid
// configuration. Use it at API boundaries where the configuration is
// runtime input.
func NewChecked(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		d.chans = append(d.chans, dram.NewDevice(cfg.DRAM, cfg.BanksPerChannel))
	}
	return d, nil
}

// New builds a device from cfg; it panics on invalid configuration.
func New(cfg Config) *Device {
	d, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// SetFaults attaches a fault injector consulted on every access; nil
// (the default) disables injection.
func (d *Device) SetFaults(inj *fault.Injector) { d.inj = inj }

// SetClock attaches the run's clock to both link directions and every
// channel (see sim.Resource.SetClock); no access may then arrive before
// it.
func (d *Device) SetClock(clock *sim.Time) {
	d.down.SetClock(clock)
	d.up.SetClock(clock)
	for _, c := range d.chans {
		c.SetClock(clock)
	}
}

// MaxLive reports the most reservations any one link direction, bank or
// channel bus holds.
func (d *Device) MaxLive() int {
	m := max(d.down.Live(), d.up.Live())
	for _, c := range d.chans {
		m = max(m, c.MaxLive())
	}
	return m
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// reqBytes is the size of a CXL request header flit.
const reqBytes = 32

// Access performs one access of size bytes at physical address addr,
// starting at time t, and returns the completion time (data available at
// the NDP side for reads, write acknowledged for writes).
func (d *Device) Access(t sim.Time, addr uint64, bytes int, write bool) sim.Time {
	ch, row := d.mapAddr(addr)

	// A degraded link (fault injection) serves the whole access at
	// reduced bandwidth; retries re-send the request flit after the
	// downstream leg, paying latency and link energy per retry.
	bw := d.cfg.LinkGBps
	if d.inj != nil {
		if f := d.inj.CXLBWFactor(t); f > 1 {
			bw /= f
			d.inj.CountDegraded()
		}
	}

	// Request flit downstream. Writes carry their payload downstream.
	downBytes := reqBytes
	if write {
		downBytes += bytes
	}
	ser := sim.FromNS(float64(downBytes) / bw)
	_, end := d.down.Acquire(t, ser)
	d.stats.LinkBusy += ser
	atDev := end + d.cfg.LinkLatency

	extraBits := 0
	if d.inj != nil {
		if n, extra := d.inj.CXLRetry(atDev); n > 0 {
			atDev += extra
			extraBits = n * reqBytes * 8 // each retry re-sends the request flit
		}
	}

	// DRAM access on the channel.
	done, _ := d.chans[ch].Access(atDev, row, bytes, write)

	// Response upstream. Reads carry their payload upstream.
	upBytes := reqBytes
	if !write {
		upBytes += bytes
	}
	ser = sim.FromNS(float64(upBytes) / bw)
	_, end = d.up.Acquire(done, ser)
	d.stats.LinkBusy += ser
	finish := end + d.cfg.LinkLatency

	d.stats.LinkEnergyPJ += float64((downBytes+upBytes)*8+extraBits) * d.cfg.PJPerBit
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return finish
}

// mapAddr maps a physical address to (channel, row), interleaving
// channels at row granularity so streaming accesses spread across
// channels.
func (d *Device) mapAddr(addr uint64) (ch int, row int64) {
	rowBytes := uint64(d.cfg.DRAM.RowBytes)
	globalRow := addr / rowBytes
	ch = int(globalRow % uint64(len(d.chans)))
	row = int64(globalRow / uint64(len(d.chans)))
	return ch, row
}

// MinLatency is the unloaded round-trip latency for an access of the
// given size with a row-buffer miss, used by analytical policy code.
func (d *Device) MinLatency(bytes int) sim.Time {
	return 2*d.cfg.LinkLatency +
		sim.FromNS(float64(2*reqBytes+bytes)/d.cfg.LinkGBps) +
		d.chans[0].RawLatency(false, bytes)
}

// Stats returns a copy of the link statistics.
func (d *Device) Stats() Stats { return d.stats }

// DRAMStats sums statistics over the device's DDR channels.
func (d *Device) DRAMStats() dram.Stats {
	var total dram.Stats
	for _, c := range d.chans {
		s := c.Stats()
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.RowHits += s.RowHits
		total.Activations += s.Activations
		total.EnergyPJ += s.EnergyPJ
		total.BusyTime += s.BusyTime
	}
	return total
}

// Reset clears all link and channel state.
func (d *Device) Reset() {
	d.down.Reset()
	d.up.Reset()
	for _, c := range d.chans {
		c.Reset()
	}
	d.stats = Stats{}
}
