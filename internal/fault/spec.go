// Package fault is a seeded, deterministic fault-injection engine for
// the simulated memory path. A Spec describes which fault models are
// active; an Injector evaluates them against simulated time using the
// simulator's own RNG (never wall-clock), so a (spec, seed) pair always
// perturbs a run identically. The supported models are:
//
//   - cxl-retry: transient CXL flit retries. Each extended-memory access
//     independently suffers 0..max retries (probability rate per draw);
//     every retry adds lat of latency and re-sends the request flit,
//     charging link energy.
//   - cxl-degrade: CXL link degradation. During [at, at+dur) the link
//     runs at LinkGBps/factor, e.g. after retraining to fewer lanes.
//   - vault-fail: a unit's DRAM vault goes offline at time at and stays
//     dead. Accesses to stream-cache lines homed there fall back to
//     extended memory until reconfiguration remaps the streams.
//   - noc-flap: a flapping on-package NoC link. During [at, at+dur),
//     hops through matching (stack, dir) links pay lat extra latency.
//
// Spec grammar (see Parse): clauses separated by ';', parameters by ','.
//
//	spec   := clause (';' clause)*
//	clause := kind (',' key '=' value)*
//	kind   := "cxl-retry" | "cxl-degrade" | "vault-fail" | "noc-flap"
//
// Durations accept ns/us/ms/s suffixes ("200ns", "40us"); a bare number
// means nanoseconds. Example:
//
//	vault-fail,unit=3,at=40us;cxl-retry,rate=0.01,lat=200ns
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"ndpext/internal/sim"
)

// Kind enumerates the fault models.
type Kind int

const (
	// CXLRetry injects transient flit retries on the CXL link.
	CXLRetry Kind = iota
	// CXLDegrade steps the CXL link bandwidth down for an interval.
	CXLDegrade
	// VaultFail takes one unit's DRAM vault offline permanently.
	VaultFail
	// NoCFlap adds latency to matching NoC hops for an interval.
	NoCFlap
)

// String names the kind using the spec-grammar spelling.
func (k Kind) String() string {
	switch k {
	case CXLRetry:
		return "cxl-retry"
	case CXLDegrade:
		return "cxl-degrade"
	case VaultFail:
		return "vault-fail"
	case NoCFlap:
		return "noc-flap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Clause is one parsed fault model instance. Fields are interpreted per
// Kind; unused fields hold their defaults.
type Clause struct {
	Kind Kind

	// Rate is the per-draw retry probability (cxl-retry).
	Rate float64
	// Max bounds retries per access (cxl-retry).
	Max int
	// Lat is the penalty per retry (cxl-retry) or per hop (noc-flap).
	Lat sim.Time

	// At is when the fault begins.
	At sim.Time
	// Dur is how long the fault lasts; 0 means forever
	// (cxl-degrade, noc-flap; vault-fail is always permanent).
	Dur sim.Time

	// Factor divides the link bandwidth (cxl-degrade); must be >= 1.
	Factor float64

	// Unit is the failed unit index (vault-fail).
	Unit int

	// Stack and Dir select which NoC links flap (noc-flap); -1 is a
	// wildcard. Dir uses the router's encoding: 0 +X, 1 -X, 2 +Y, 3 -Y.
	Stack, Dir int
}

// active reports whether the clause's time window covers t.
func (c Clause) active(t sim.Time) bool {
	if t < c.At {
		return false
	}
	return c.Dur == 0 || t < c.At+c.Dur
}

// Spec is a parsed fault-injection specification.
type Spec struct {
	Clauses []Clause
}

// Empty reports whether the spec activates no fault model.
func (s Spec) Empty() bool { return len(s.Clauses) == 0 }

// String renders the spec in the grammar Parse accepts.
func (s Spec) String() string {
	var parts []string
	for _, c := range s.Clauses {
		p := c.Kind.String()
		switch c.Kind {
		case CXLRetry:
			p += fmt.Sprintf(",rate=%g,max=%d,lat=%s", c.Rate, c.Max, fmtDur(c.Lat))
		case CXLDegrade:
			p += fmt.Sprintf(",at=%s,factor=%g", fmtDur(c.At), c.Factor)
			if c.Dur != 0 {
				p += ",dur=" + fmtDur(c.Dur)
			}
		case VaultFail:
			p += fmt.Sprintf(",unit=%d,at=%s", c.Unit, fmtDur(c.At))
		case NoCFlap:
			p += fmt.Sprintf(",stack=%d,dir=%d,at=%s,lat=%s", c.Stack, c.Dir, fmtDur(c.At), fmtDur(c.Lat))
			if c.Dur != 0 {
				p += ",dur=" + fmtDur(c.Dur)
			}
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ";")
}

func fmtDur(t sim.Time) string { return fmt.Sprintf("%gns", t.NS()) }

// Validate checks machine-dependent bounds: numUnits is the number of
// NDP units in the configured machine (pass <= 0 to skip unit checks,
// e.g. when parsing before the machine is known). Every vault-fail unit
// must exist, and at least one vault must survive: the degraded-mode
// configuration has nowhere to place data on a machine with none.
func (s Spec) Validate(numUnits int) error {
	if numUnits <= 0 {
		return nil
	}
	dead := make(map[int]bool)
	for i, c := range s.Clauses {
		if c.Kind != VaultFail {
			continue
		}
		if c.Unit < 0 || c.Unit >= numUnits {
			return fmt.Errorf("fault clause %d: vault-fail unit %d out of range [0,%d)", i, c.Unit, numUnits)
		}
		dead[c.Unit] = true
	}
	if len(dead) == numUnits {
		return fmt.Errorf("fault spec fails all %d vaults; at least one must survive", numUnits)
	}
	return nil
}

// Parse parses the fault spec grammar documented in the package comment.
// An empty string yields an empty Spec.
func Parse(spec string) (Spec, error) {
	var out Spec
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return out, nil
	}
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		c, err := parseClause(raw)
		if err != nil {
			return Spec{}, err
		}
		out.Clauses = append(out.Clauses, c)
	}
	return out, nil
}

// parseClause parses one "kind,key=value,..." clause, applying per-kind
// defaults and rejecting unknown or ill-typed parameters.
func parseClause(raw string) (Clause, error) {
	fields := strings.Split(raw, ",")
	kind := strings.TrimSpace(fields[0])
	var c Clause
	switch kind {
	case "cxl-retry":
		c = Clause{Kind: CXLRetry, Rate: 0, Max: 3, Lat: sim.FromNS(100)}
	case "cxl-degrade":
		c = Clause{Kind: CXLDegrade, Factor: 2}
	case "vault-fail":
		c = Clause{Kind: VaultFail, Unit: -1}
	case "noc-flap":
		c = Clause{Kind: NoCFlap, Stack: -1, Dir: -1, Lat: sim.FromNS(50)}
	default:
		return Clause{}, fmt.Errorf("fault clause %q: unknown kind %q", raw, kind)
	}
	seenUnit := false
	for _, kv := range fields[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Clause{}, fmt.Errorf("fault clause %q: parameter %q is not key=value", raw, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch {
		case key == "rate" && c.Kind == CXLRetry:
			c.Rate, err = parseUnitFloat(val)
		case key == "max" && c.Kind == CXLRetry:
			c.Max, err = parseInt(val)
			if err == nil && c.Max < 1 {
				err = fmt.Errorf("max must be >= 1")
			}
		case key == "lat" && (c.Kind == CXLRetry || c.Kind == NoCFlap):
			c.Lat, err = parseDur(val)
		case key == "at" && c.Kind != CXLRetry:
			c.At, err = parseDur(val)
		case key == "dur" && (c.Kind == CXLDegrade || c.Kind == NoCFlap):
			c.Dur, err = parseDur(val)
		case key == "factor" && c.Kind == CXLDegrade:
			c.Factor, err = strconv.ParseFloat(val, 64)
			if err == nil && c.Factor < 1 {
				err = fmt.Errorf("factor must be >= 1")
			}
		case key == "unit" && c.Kind == VaultFail:
			c.Unit, err = parseInt(val)
			seenUnit = err == nil
		case key == "stack" && c.Kind == NoCFlap:
			c.Stack, err = parseInt(val)
		case key == "dir" && c.Kind == NoCFlap:
			c.Dir, err = parseInt(val)
			if err == nil && (c.Dir < -1 || c.Dir > 3) {
				err = fmt.Errorf("dir must be -1 (any) or 0..3")
			}
		default:
			err = fmt.Errorf("unknown parameter")
		}
		if err != nil {
			return Clause{}, fmt.Errorf("fault clause %q: parameter %q: %v", raw, kv, err)
		}
	}
	if c.Kind == VaultFail && !seenUnit {
		return Clause{}, fmt.Errorf("fault clause %q: vault-fail requires unit=N", raw)
	}
	if c.Kind == VaultFail && c.Unit < 0 {
		return Clause{}, fmt.Errorf("fault clause %q: unit must be >= 0", raw)
	}
	return c, nil
}

func parseInt(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("not an integer")
	}
	return n, nil
}

// parseUnitFloat parses a probability in [0, 1].
func parseUnitFloat(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("must be in [0,1]")
	}
	return f, nil
}

// parseDur parses a non-negative duration with an ns/us/ms/s suffix;
// a bare number is nanoseconds.
func parseDur(val string) (sim.Time, error) {
	scale := 1.0 // ns
	num := val
	switch {
	case strings.HasSuffix(val, "ns"):
		num = val[:len(val)-2]
	case strings.HasSuffix(val, "us"), strings.HasSuffix(val, "µs"):
		num, scale = strings.TrimSuffix(strings.TrimSuffix(val, "us"), "µs"), 1e3
	case strings.HasSuffix(val, "ms"):
		num, scale = val[:len(val)-2], 1e6
	case strings.HasSuffix(val, "s"):
		num, scale = val[:len(val)-1], 1e9
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", val)
	}
	if f < 0 {
		return 0, fmt.Errorf("duration %q is negative", val)
	}
	return sim.FromNS(f * scale), nil
}
