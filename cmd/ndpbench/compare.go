package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json that -compare applies.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares the untraced runs of two record files (base: the
// parent commit, head: the change), one row per workload × end-to-end
// metric.
func runCompare(w io.Writer, boundsPath, basePath, headPath string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-15s %11s %23s %11s %23s %5s %7s  %s\n",
		"workload", "metric", "base", "base q1..q3", "head", "head q1..q3", "wins", "p", "verdict")
	for _, wl := range workloadNames() {
		b, h := base[wl], head[wl]
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(w, "%-16s (needs untraced runs on both sides: base %d, head %d)\n", wl, len(b), len(h))
			continue
		}
		for _, m := range def.EndToEnd {
			bv, hv, pairs := pairUp(b, h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := judge(bv, hv, pairs, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-16s %-15s %11.5g %11.5g..%-10.5g %11.5g %11.5g..%-10.5g %2d/%-2d %7.3g  %s\n",
				wl, m.Name, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.headQ1, v.headQ3,
				v.wins, len(pairs), v.p, v.verdict)
		}
	}
	return nil
}

// readRecords loads the untraced run records of a file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// pairUp returns both sides' values of a metric and the (base, head)
// pairs: the i-th base run of a seed pairs with the i-th head run of that
// seed; without common seeds, runs pair in file order.
func pairUp(base, head []record, name string) (bv, hv []float64, pairs [][2]float64) {
	bySeed := map[uint64][]float64{}
	for _, r := range head {
		if vu, ok := r.Metrics[name]; ok {
			hv = append(hv, vu.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], vu.Value)
		}
	}
	for _, r := range base {
		if vu, ok := r.Metrics[name]; ok {
			bv = append(bv, vu.Value)
			if hs := bySeed[r.Seed]; len(hs) > 0 {
				pairs = append(pairs, [2]float64{vu.Value, hs[0]})
				bySeed[r.Seed] = hs[1:]
			}
		}
	}
	if len(pairs) == 0 {
		for i := 0; i < len(bv) && i < len(hv); i++ {
			pairs = append(pairs, [2]float64{bv[i], hv[i]})
		}
	}
	return bv, hv, pairs
}

// comparison is one row of -compare.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins                    int
	p                       float64
	verdict                 string
}

// judge applies the claim rule: "improved" needs the change to win at
// least nine tenths of the pairs and its median to differ from the
// parent's by more than the parent's interquartile range; "regressed"
// means the median got worse by more than the bound; where the parent's
// own spread exceeds the bound the result is "unresolved" unless every
// run of one side beats every run of the other.
func judge(base, head []float64, pairs [][2]float64, lowerBetter bool, bound float64) comparison {
	c := comparison{baseMed: median(base), headMed: median(head), p: mannWhitneyP(base, head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	better := func(x, than float64) bool {
		if lowerBetter {
			return x < than
		}
		return x > than
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			c.wins++
		}
	}
	bMin, bMax := minMax(base)
	hMin, hMax := minMax(head)
	allBetter, allWorse := hMax < bMin, hMin > bMax
	if !lowerBetter {
		allBetter, allWorse = hMin > bMax, hMax < bMin
	}
	worse := (c.headMed - c.baseMed) / c.baseMed
	if !lowerBetter {
		worse = -worse
	}
	spread := (c.baseQ3 - c.baseQ1) / c.baseMed
	switch {
	case len(pairs) > 0 && float64(c.wins) >= 0.9*float64(len(pairs)) &&
		better(c.headMed, c.baseMed) && math.Abs(c.headMed-c.baseMed) > c.baseQ3-c.baseQ1:
		c.verdict = "improved"
	case worse > bound && (spread <= bound || allWorse):
		c.verdict = "regressed"
	case worse > bound, spread > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func minMax(xs []float64) (lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}
