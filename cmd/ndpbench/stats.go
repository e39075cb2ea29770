package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads read the same here as in scripts that check the benchmark.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const parts = 4
	m := n + 1
	at := func(i int) float64 {
		j := i * m / parts
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return at(1), at(3)
}

// mannWhitneyP is the two-sided p-value of the Mann-Whitney U test that
// samples a and b come from one distribution. Small samples without ties
// use the exact distribution of U; otherwise the normal approximation
// with tie and continuity corrections.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var rankA, tieTerm float64
	ties := false
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of ranks i+1 .. j
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += rank
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieTerm += t*t*t - t
		}
		i = j
	}
	u := rankA - float64(n1*(n1+1))/2
	uMin := math.Min(u, float64(n1*n2)-u)
	if !ties && n1 <= 30 && n2 <= 30 {
		return math.Min(1, 2*exactUCDF(n1, n2, int(uMin)))
	}
	n := float64(n1 + n2)
	sigma := math.Sqrt(float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return 1
	}
	z := (float64(n1*n2)/2 - uMin - 0.5) / sigma
	if z < 0 {
		return 1
	}
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUCDF returns P(U <= u) for samples of sizes n1 and n2 without
// ties: f[i][j][k] counts the orderings of i and j values whose U is k,
// built by placing the largest value last (from the first sample it
// exceeds all j values of the second, adding j to U).
func exactUCDF(n1, n2, u int) float64 {
	f := make([][][]float64, n1+1)
	for i := range f {
		f[i] = make([][]float64, n2+1)
		for j := range f[i] {
			f[i][j] = make([]float64, i*j+1)
			if i == 0 || j == 0 {
				f[i][j][0] = 1
				continue
			}
			for k := range f[i][j] {
				if k >= j && k-j < len(f[i-1][j]) {
					f[i][j][k] += f[i-1][j][k-j]
				}
				if k < len(f[i][j-1]) {
					f[i][j][k] += f[i][j-1][k]
				}
			}
		}
	}
	var below, total float64
	for k, c := range f[n1][n2] {
		total += c
		if k <= u {
			below += c
		}
	}
	return below / total
}
