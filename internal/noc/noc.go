// Package noc models the interconnect of the NDP system: a mesh of NDP
// units inside each 3D stack (intra-stack network) and a mesh of stacks
// connected by off-chip links (inter-stack network), following the
// paper's Fig. 1 and Table II.
//
// Messages are routed XY within the stack grid and XY within the unit
// mesh. The inter-stack links are the system bottleneck (32 GB/s per
// direction, 10 ns/hop), so they are modelled as contended resources
// with busy-until reservation; the intra-stack mesh is modelled as
// latency plus serialization without queueing (its aggregate bandwidth
// is far higher, and the paper identifies the inter-stack links as the
// binding constraint). Messages that transit an intermediate stack are
// assumed to bypass its unit mesh on the logic-die routers.
package noc

import (
	"fmt"

	"ndpext/internal/fault"
	"ndpext/internal/sim"
)

// Config describes the interconnect topology and physical parameters.
type Config struct {
	StacksX, StacksY int // inter-stack mesh dimensions
	UnitsX, UnitsY   int // intra-stack unit mesh dimensions

	IntraHopLat   sim.Time // per-hop latency inside a stack
	InterHopLat   sim.Time // per-hop latency between stacks
	IntraGBps     float64  // intra-stack link bandwidth (serialization only)
	InterGBps     float64  // inter-stack link bandwidth per direction (contended)
	IntraPJPerBit float64
	InterPJPerBit float64
}

// DefaultConfig returns the Table II interconnect: a 4×2 inter-stack mesh
// of stacks, each with a 4×4 unit mesh; 1.5 ns intra hops at 0.4 pJ/bit;
// 10 ns inter hops at 32 GB/s per direction and 4 pJ/bit.
func DefaultConfig() Config {
	return Config{
		StacksX: 4, StacksY: 2,
		UnitsX: 4, UnitsY: 4,
		IntraHopLat: sim.FromNS(1.5), InterHopLat: sim.FromNS(10),
		IntraGBps: 64, InterGBps: 32,
		IntraPJPerBit: 0.4, InterPJPerBit: 4,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.StacksX <= 0 || c.StacksY <= 0 || c.UnitsX <= 0 || c.UnitsY <= 0 {
		return fmt.Errorf("noc: topology dimensions must be positive: %+v", c)
	}
	// Bound the topology so a corrupt config cannot demand an absurd
	// allocation (and the unit count cannot overflow int).
	const maxDim = 1 << 12
	if c.StacksX > maxDim || c.StacksY > maxDim || c.UnitsX > maxDim || c.UnitsY > maxDim {
		return fmt.Errorf("noc: topology dimension exceeds %d: %+v", maxDim, c)
	}
	if units := int64(c.StacksX) * int64(c.StacksY) * int64(c.UnitsX) * int64(c.UnitsY); units > 1<<20 {
		return fmt.Errorf("noc: %d units exceeds the supported 2^20", units)
	}
	if c.InterGBps <= 0 || c.IntraGBps <= 0 {
		return fmt.Errorf("noc: bandwidths must be positive")
	}
	return nil
}

// NumStacks returns the stack count.
func (c Config) NumStacks() int { return c.StacksX * c.StacksY }

// UnitsPerStack returns the unit count per stack.
func (c Config) UnitsPerStack() int { return c.UnitsX * c.UnitsY }

// NumUnits returns the total NDP unit count.
func (c Config) NumUnits() int { return c.NumStacks() * c.UnitsPerStack() }

// Transit describes the outcome of routing one message.
type Transit struct {
	Arrive     sim.Time // completion time at the destination
	IntraDelay sim.Time // time attributable to the intra-stack network
	InterDelay sim.Time // time attributable to inter-stack links (incl. queueing)
	IntraHops  int
	InterHops  int
	EnergyPJ   float64
}

// Stats aggregates network activity.
type Stats struct {
	Messages   uint64
	IntraHops  uint64
	InterHops  uint64
	EnergyPJ   float64
	IntraDelay sim.Time
	InterDelay sim.Time
}

// Network is the interconnect instance. It is not safe for concurrent use.
type Network struct {
	cfg Config
	// links holds every contended link. links[4*s+d] is the directed
	// inter-stack link leaving stack s toward direction d (0:+X, 1:-X,
	// 2:+Y, 3:-Y); links to outside the grid are present but unused.
	// The CXL links follow.
	links []sim.Resource
	// cxlLink[2*s+dir] is stack s's dedicated link to the central CXL
	// controller (paper Fig. 1), dir 0 = toward the controller,
	// 1 = back. Extended-memory traffic uses these instead of crossing
	// the stack mesh.
	cxlLink []sim.Resource
	// walks[d] lists the hops of every line of the stack grid walked in
	// direction d: rows for ±X, columns for ±Y, each line in the order
	// the walk crosses it. The X leg of an XY route is then one run of
	// its source row and the Y leg one run of its destination column
	// (legs), so Route reads its hops from the table instead of
	// deciding a direction per hop.
	walks [4][]hop
	// loc[u] is unit u's position, computed once so that routing does no
	// integer division and never copies cfg.
	loc   []unitLoc
	inj   *fault.Injector
	stats Stats
}

// hop is one inter-stack link crossing: the directed link to reserve
// and the stack and direction it leaves, for fault lookups.
type hop struct {
	link       *sim.Resource
	stack, dir int32
}

// unitLoc places one unit: its stack, its (x, y) in the stack's unit
// mesh, and the stack's (sx, sy) in the stack grid.
type unitLoc struct {
	stack, x, y, sx, sy int32
}

// NewChecked builds a network from cfg, returning an error on invalid
// configuration.
func NewChecked(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stacks, sx, sy := cfg.NumStacks(), cfg.StacksX, cfg.StacksY
	links := make([]sim.Resource, 6*stacks)
	n := &Network{cfg: cfg, links: links, cxlLink: links[4*stacks:]}
	for d := range n.walks {
		n.walks[d] = make([]hop, stacks)
	}
	for y := 0; y < sy; y++ {
		for x := 0; x < sx; x++ {
			s := y*sx + x
			h := func(d int) hop { return hop{link: &links[4*s+d], stack: int32(s), dir: int32(d)} }
			n.walks[0][y*sx+x] = h(0)
			n.walks[1][y*sx+sx-1-x] = h(1)
			n.walks[2][x*sy+y] = h(2)
			n.walks[3][x*sy+sy-1-y] = h(3)
		}
	}
	n.loc = make([]unitLoc, cfg.NumUnits())
	per := cfg.UnitsPerStack()
	for u := range n.loc {
		s, local := u/per, u%per
		n.loc[u] = unitLoc{stack: int32(s), x: int32(local % cfg.UnitsX), y: int32(local / cfg.UnitsX),
			sx: int32(s % cfg.StacksX), sy: int32(s / cfg.StacksX)}
	}
	return n, nil
}

// New builds a network from cfg. It panics if cfg is invalid (topology is
// construction-time configuration, not runtime input).
func New(cfg Config) *Network {
	n, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// SetFaults attaches a fault injector whose noc-flap clauses delay
// inter-stack hops; nil (the default) disables injection.
func (n *Network) SetFaults(inj *fault.Injector) { n.inj = inj }

// SetClock attaches the run's clock to every link (see
// sim.Resource.SetClock); no message may then be routed before it.
func (n *Network) SetClock(clock *sim.Time) {
	for i := range n.links {
		n.links[i].SetClock(clock)
	}
}

// MaxLive reports the most reservations any one link holds.
func (n *Network) MaxLive() int {
	m := 0
	for i := range n.links {
		m = max(m, n.links[i].Live())
	}
	return m
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NumUnits returns the total NDP unit count.
func (n *Network) NumUnits() int { return len(n.loc) }

// StackOf returns the stack index containing unit u.
func (n *Network) StackOf(u int) int { return int(n.loc[u].stack) }

// unitPos returns the (x, y) position of unit u within its stack.
func (n *Network) unitPos(u int) (x, y int) {
	l := &n.loc[u]
	return int(l.x), int(l.y)
}

// Hops returns the intra- and inter-stack hop counts from unit `from` to
// unit `to` under XY routing.
func (n *Network) Hops(from, to int) (intra, inter int) {
	if from == to {
		return 0, 0
	}
	f, t := &n.loc[from], &n.loc[to]
	fx, fy, tx, ty := int(f.x), int(f.y), int(t.x), int(t.y)
	if f.stack == t.stack {
		return abs(fx-tx) + abs(fy-ty), 0
	}
	fsx, fsy, tsx, tsy := int(f.sx), int(f.sy), int(t.sx), int(t.sy)
	inter = abs(fsx-tsx) + abs(fsy-tsy)
	// Exit the source stack toward the first XY direction, enter the
	// destination stack from the last direction; intra hops are the
	// source unit's distance to its exit edge plus the entry edge's
	// distance to the destination unit.
	intra = n.edgeDistance(fx, fy, dirOut(fsx, fsy, tsx, tsy)) +
		n.edgeDistance(tx, ty, dirIn(fsx, fsy, tsx, tsy))
	return intra, inter
}

// dirOut is the first XY direction taken from stack (fx,fy) to (tx,ty).
func dirOut(fx, fy, tx, ty int) int {
	switch {
	case tx > fx:
		return 0 // +X
	case tx < fx:
		return 1 // -X
	case ty > fy:
		return 2 // +Y
	default:
		return 3 // -Y
	}
}

// dirIn is the direction from which the message enters the destination
// stack (the last XY leg: Y if it moved in Y, else X).
func dirIn(fx, fy, tx, ty int) int {
	switch {
	case ty > fy:
		return 3 // arrived moving +Y, so entered from the -Y edge
	case ty < fy:
		return 2
	case tx > fx:
		return 1 // arrived moving +X, entered from the -X edge
	default:
		return 0
	}
}

// edgeDistance is the hop count from position (x, y) to the stack edge
// facing direction d.
func (n *Network) edgeDistance(x, y, d int) int {
	switch d {
	case 0:
		return n.cfg.UnitsX - 1 - x
	case 1:
		return x
	case 2:
		return n.cfg.UnitsY - 1 - y
	default:
		return y
	}
}

// BaseLatency returns the unloaded latency from unit `from` to `to` for a
// message of the given size, ignoring contention. The placement policy
// uses this when computing attenuation factors.
func (n *Network) BaseLatency(from, to int, bytes int) sim.Time {
	intra, inter := n.Hops(from, to)
	t := sim.Time(intra)*n.cfg.IntraHopLat + sim.Time(inter)*n.cfg.InterHopLat
	if intra > 0 {
		t += sim.FromNS(float64(bytes) / n.cfg.IntraGBps)
	}
	if inter > 0 {
		t += sim.FromNS(float64(bytes) / n.cfg.InterGBps)
	}
	return t
}

// Route delivers a message of size bytes from unit `from` to unit `to`,
// starting at time t, reserving inter-stack link bandwidth along the way.
func (n *Network) Route(t sim.Time, from, to int, bytes int) Transit {
	var tr Transit
	tr.Arrive = t
	if from == to {
		return tr
	}
	intra, inter := n.Hops(from, to)
	tr.IntraHops, tr.InterHops = intra, inter

	// Intra-stack: latency + serialization, no queueing.
	if intra > 0 {
		d := sim.Time(intra)*n.cfg.IntraHopLat + sim.FromNS(float64(bytes)/n.cfg.IntraGBps)
		tr.IntraDelay = d
		tr.Arrive += d
		tr.EnergyPJ += float64(bytes*8) * n.cfg.IntraPJPerBit * float64(intra)
	}

	// Inter-stack: walk the XY stack path, reserving each directed link's
	// bandwidth. Transfers are wormhole-pipelined: the head flit advances
	// one hop latency after winning each link, and the tail (full
	// serialization time) is paid once at the destination.
	if inter > 0 {
		ser := sim.FromNS(float64(bytes) / n.cfg.InterGBps)
		xs, ys := n.legs(&n.loc[from], &n.loc[to])
		head := n.cross(n.cross(tr.Arrive, xs, ser), ys, ser)
		tr.InterDelay = head + ser - tr.Arrive
		tr.Arrive = head + ser
		tr.EnergyPJ += float64(bytes*8) * n.cfg.InterPJPerBit * float64(inter)
	}

	n.stats.Messages++
	n.stats.IntraHops += uint64(intra)
	n.stats.InterHops += uint64(inter)
	n.stats.EnergyPJ += tr.EnergyPJ
	n.stats.IntraDelay += tr.IntraDelay
	n.stats.InterDelay += tr.InterDelay
	return tr
}

// legs returns the hops of the XY route between two units' stacks:
// xs along the source stack's row, then ys along the destination
// stack's column.
func (n *Network) legs(f, t *unitLoc) (xs, ys []hop) {
	sx, sy, tx, ty := int(f.sx), int(f.sy), int(t.sx), int(t.sy)
	row, col := sy*n.cfg.StacksX, tx*n.cfg.StacksY
	switch lastX := n.cfg.StacksX - 1; {
	case tx > sx:
		xs = n.walks[0][row+sx : row+tx]
	case tx < sx:
		xs = n.walks[1][row+lastX-sx : row+lastX-tx]
	}
	switch lastY := n.cfg.StacksY - 1; {
	case ty > sy:
		ys = n.walks[2][col+sy : col+ty]
	case ty < sy:
		ys = n.walks[3][col+lastY-sy : col+lastY-ty]
	}
	return xs, ys
}

// cross sends a head flit that is ready at head over the hops of leg,
// reserving each link for the serialization time ser, and returns when
// the head is ready past the last one.
func (n *Network) cross(head sim.Time, leg []hop, ser sim.Time) sim.Time {
	for _, h := range leg {
		start, _ := h.link.Acquire(head, ser)
		head = start + n.cfg.InterHopLat
		if n.inj != nil {
			head += n.inj.NoCFlapDelay(int(h.stack), int(h.dir), start)
		}
	}
	return head
}

// RouteCXL carries a message between a unit and the central CXL
// controller (toCXL selects the direction): an intra-stack leg from the
// unit to the stack's controller-facing edge, then the stack's dedicated
// controller link (contended, inter-stack class).
func (n *Network) RouteCXL(t sim.Time, unit int, bytes int, toCXL bool) Transit {
	var tr Transit
	tr.Arrive = t
	s := n.StackOf(unit)
	x, y := n.unitPos(unit)
	intra := n.edgeDistance(x, y, 3) // controller-facing (-Y) edge
	tr.IntraHops = intra
	if intra > 0 {
		d := sim.Time(intra)*n.cfg.IntraHopLat + sim.FromNS(float64(bytes)/n.cfg.IntraGBps)
		tr.IntraDelay = d
		tr.Arrive += d
		tr.EnergyPJ += float64(bytes*8) * n.cfg.IntraPJPerBit * float64(intra)
	}
	dir := 0
	if !toCXL {
		dir = 1
	}
	ser := sim.FromNS(float64(bytes) / n.cfg.InterGBps)
	start, _ := n.cxlLink[2*s+dir].Acquire(tr.Arrive, ser)
	before := tr.Arrive
	tr.Arrive = start + n.cfg.InterHopLat + ser
	tr.InterHops = 1
	tr.InterDelay = tr.Arrive - before
	tr.EnergyPJ += float64(bytes*8) * n.cfg.InterPJPerBit

	n.stats.Messages++
	n.stats.IntraHops += uint64(intra)
	n.stats.InterHops++
	n.stats.EnergyPJ += tr.EnergyPJ
	n.stats.IntraDelay += tr.IntraDelay
	n.stats.InterDelay += tr.InterDelay
	return tr
}

// BaseCXLLatency is the unloaded RouteCXL latency from the given unit.
func (n *Network) BaseCXLLatency(unit, bytes int) sim.Time {
	x, y := n.unitPos(unit)
	intra := n.edgeDistance(x, y, 3)
	t := sim.Time(intra)*n.cfg.IntraHopLat + n.cfg.InterHopLat +
		sim.FromNS(float64(bytes)/n.cfg.InterGBps)
	if intra > 0 {
		t += sim.FromNS(float64(bytes) / n.cfg.IntraGBps)
	}
	return t
}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// Reset clears link reservations and statistics.
func (n *Network) Reset() {
	for i := range n.links {
		n.links[i].Reset()
	}
	n.stats = Stats{}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
