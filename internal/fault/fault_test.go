package fault

import (
	"testing"

	"ndpext/internal/sim"
)

func TestParseAppliesDefaults(t *testing.T) {
	spec, err := Parse("cxl-retry,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Clauses[0]
	if c.Kind != CXLRetry || c.Rate != 0.5 || c.Max != 3 || c.Lat != sim.FromNS(100) {
		t.Fatalf("bad defaults: %+v", c)
	}

	spec, err = Parse("cxl-degrade,at=40us")
	if err != nil {
		t.Fatal(err)
	}
	c = spec.Clauses[0]
	if c.Kind != CXLDegrade || c.Factor != 2 || c.At != sim.FromNS(40e3) || c.Dur != 0 {
		t.Fatalf("bad defaults: %+v", c)
	}

	spec, err = Parse("noc-flap,at=1ms,dur=2ms")
	if err != nil {
		t.Fatal(err)
	}
	c = spec.Clauses[0]
	if c.Stack != -1 || c.Dir != -1 || c.Lat != sim.FromNS(50) {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestParseMultiClause(t *testing.T) {
	spec, err := Parse(" vault-fail,unit=3,at=40us ; cxl-retry,rate=0.01,lat=200ns ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Clauses) != 2 {
		t.Fatalf("got %d clauses, want 2", len(spec.Clauses))
	}
	if v := spec.Clauses[0]; v.Kind != VaultFail || v.Unit != 3 || v.At != sim.FromNS(40e3) {
		t.Fatalf("bad vault-fail clause: %+v", v)
	}
	if r := spec.Clauses[1]; r.Kind != CXLRetry || r.Rate != 0.01 || r.Lat != sim.FromNS(200) {
		t.Fatalf("bad cxl-retry clause: %+v", r)
	}
}

func TestParseDurationSuffixes(t *testing.T) {
	cases := map[string]sim.Time{
		"100":   sim.FromNS(100), // bare number = ns
		"100ns": sim.FromNS(100),
		"2us":   sim.FromNS(2e3),
		"2µs":   sim.FromNS(2e3),
		"3ms":   sim.FromNS(3e6),
		"1s":    sim.FromNS(1e9),
		"1.5us": sim.FromNS(1500),
	}
	for in, want := range cases {
		spec, err := Parse("cxl-degrade,at=" + in)
		if err != nil {
			t.Fatalf("at=%s: %v", in, err)
		}
		if got := spec.Clauses[0].At; got != want {
			t.Fatalf("at=%s parsed to %v, want %v", in, got, want)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"meteor-strike",             // unknown kind
		"cxl-retry,rate=2",          // rate out of [0,1]
		"cxl-retry,rate=-0.5",       // negative rate
		"cxl-retry,max=0",           // max below 1
		"cxl-retry,unit=3",          // parameter of another kind
		"cxl-degrade,factor=0.5",    // factor below 1
		"cxl-degrade,at=-5us",       // negative time
		"vault-fail,at=1us",         // missing required unit
		"vault-fail,unit=-2,at=1us", // negative unit
		"noc-flap,dir=4",            // direction out of range
		"noc-flap,lat",              // not key=value
		"cxl-retry,rate=abc",        // not a number
		"cxl-degrade,at=12parsecs",  // unknown suffix
		"vault-fail,unit=1,bogus=1", // unknown parameter
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", s)
		}
	}
}

func TestParseEmptyAndString(t *testing.T) {
	spec, err := Parse("")
	if err != nil || !spec.Empty() {
		t.Fatalf("empty string: spec=%+v err=%v", spec, err)
	}
	if New(spec, 1) != nil {
		t.Fatal("empty spec built a non-nil injector")
	}

	// String must render in the grammar Parse accepts (round trip).
	orig, err := Parse("cxl-retry,rate=0.05,lat=200ns;vault-fail,unit=5,at=300us;cxl-degrade,at=0,factor=4,dur=1ms")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("String() output %q does not re-parse: %v", orig.String(), err)
	}
	if len(again.Clauses) != len(orig.Clauses) {
		t.Fatalf("round trip lost clauses: %q", orig.String())
	}
	for i := range orig.Clauses {
		if again.Clauses[i] != orig.Clauses[i] {
			t.Fatalf("clause %d changed in round trip:\n%+v\nvs\n%+v", i, orig.Clauses[i], again.Clauses[i])
		}
	}
}

func TestValidateUnitRange(t *testing.T) {
	spec, err := Parse("vault-fail,unit=8,at=1us")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(8); err == nil {
		t.Fatal("unit 8 accepted on an 8-unit machine")
	}
	if err := spec.Validate(9); err != nil {
		t.Fatalf("unit 8 rejected on a 9-unit machine: %v", err)
	}
	if err := spec.Validate(0); err != nil {
		t.Fatalf("numUnits<=0 must skip the check: %v", err)
	}
	all, err := Parse("vault-fail,unit=0,at=1us;vault-fail,unit=1,at=2us;vault-fail,unit=0,at=3us")
	if err != nil {
		t.Fatal(err)
	}
	if err := all.Validate(2); err == nil {
		t.Fatal("a spec failing every vault accepted")
	}
	if err := all.Validate(3); err != nil {
		t.Fatalf("one surviving vault rejected: %v", err)
	}
}

func TestClauseWindows(t *testing.T) {
	spec, err := Parse("cxl-degrade,at=10us,dur=5us,factor=4")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(spec, 1)
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{sim.FromNS(9e3), 1},  // before
		{sim.FromNS(10e3), 4}, // window start is inclusive
		{sim.FromNS(14e3), 4}, // inside
		{sim.FromNS(15e3), 1}, // window end is exclusive
	}
	for _, c := range cases {
		if got := inj.CXLBWFactor(c.t); got != c.want {
			t.Errorf("CXLBWFactor(%v) = %v, want %v", c.t, got, c.want)
		}
	}

	// dur=0 means forever.
	forever := New(mustParse(t, "cxl-degrade,at=10us,factor=2"), 1)
	if forever.CXLBWFactor(sim.FromNS(1e12)) != 2 {
		t.Fatal("dur=0 window expired")
	}
}

func TestVaultFailAndFailedUnits(t *testing.T) {
	inj := New(mustParse(t, "vault-fail,unit=5,at=10us;vault-fail,unit=2,at=20us;vault-fail,unit=5,at=1us"), 1)
	if inj.VaultFailed(5, sim.FromNS(500)) {
		t.Fatal("vault 5 failed before its at time")
	}
	if !inj.VaultFailed(5, sim.FromNS(2e3)) {
		t.Fatal("vault 5 healthy after its at time")
	}
	if got := inj.FailedUnits(sim.FromNS(15e3)); len(got) != 1 || got[0] != 5 {
		t.Fatalf("FailedUnits(15us) = %v, want [5]", got)
	}
	if got := inj.FailedUnits(sim.FromNS(25e3)); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("FailedUnits(25us) = %v, want [2 5] (sorted, deduped)", got)
	}
}

func TestNoCFlapMatching(t *testing.T) {
	inj := New(mustParse(t, "noc-flap,stack=1,dir=2,lat=30ns;noc-flap,stack=-1,dir=2,lat=10ns"), 1)
	// stack 1, dir 2 matches both clauses; stack 0 only the wildcard.
	if got := inj.NoCFlapDelay(1, 2, 0); got != sim.FromNS(40) {
		t.Fatalf("delay(1,2) = %v, want 40ns", got)
	}
	if got := inj.NoCFlapDelay(0, 2, 0); got != sim.FromNS(10) {
		t.Fatalf("delay(0,2) = %v, want 10ns", got)
	}
	if got := inj.NoCFlapDelay(1, 3, 0); got != 0 {
		t.Fatalf("delay(1,3) = %v, want 0", got)
	}
	s := inj.Stats()
	if s.FlapDelays != 2 || s.FlapTime != sim.FromNS(50) {
		t.Fatalf("bad flap stats: %+v", s)
	}
}

// Same (spec, seed) and call sequence must reproduce the retry episode
// stream exactly; a different seed must diverge.
func TestRetryDeterminism(t *testing.T) {
	draw := func(seed uint64) (total int, extra sim.Time) {
		inj := New(mustParse(t, "cxl-retry,rate=0.3,lat=100ns"), seed)
		for k := 0; k < 2000; k++ {
			n, e := inj.CXLRetry(sim.Time(k) * sim.FromNS(10))
			total += n
			extra += e
		}
		return
	}
	n1, e1 := draw(7)
	n2, e2 := draw(7)
	if n1 != n2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", n1, e1, n2, e2)
	}
	if n1 == 0 {
		t.Fatal("rate=0.3 over 2000 draws injected nothing")
	}
	n3, _ := draw(8)
	if n3 == n1 {
		t.Fatalf("different seeds produced identical retry totals (%d)", n1)
	}
}

func TestZeroRateInjectsNothing(t *testing.T) {
	inj := New(mustParse(t, "cxl-retry,rate=0"), 1)
	for k := 0; k < 1000; k++ {
		if n, e := inj.CXLRetry(sim.Time(k)); n != 0 || e != 0 {
			t.Fatalf("rate=0 injected a retry at draw %d", k)
		}
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("rate=0 accumulated stats: %+v", s)
	}
}

func TestNilInjectorStats(t *testing.T) {
	var inj *Injector
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", s)
	}
}

func mustParse(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// FuzzParseSpec checks that Parse never panics and that every accepted
// spec round-trips: String() re-parses to the same clauses.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("cxl-retry,rate=0.01")
	f.Add("vault-fail,unit=3,at=40us;cxl-retry,rate=0.01,lat=200ns")
	f.Add("cxl-degrade,at=0,factor=4,dur=1ms")
	f.Add("noc-flap,stack=1,dir=2,at=1us,dur=2us,lat=30ns")
	f.Add("cxl-retry,rate=2")
	f.Add(";;;,=,=;")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("String() of accepted spec %q does not re-parse: %v", s, err)
		}
		if len(again.Clauses) != len(spec.Clauses) {
			t.Fatalf("round trip changed clause count for %q", s)
		}
		for i := range spec.Clauses {
			if again.Clauses[i] != spec.Clauses[i] {
				t.Fatalf("round trip changed clause %d of %q:\n%+v\nvs\n%+v",
					i, s, spec.Clauses[i], again.Clauses[i])
			}
		}
	})
}
