package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Jaccard returns |A ∩ B| / |A ∪ B| over two id sets.
func Jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	in := make(map[int32]struct{}, len(a))
	for _, x := range a {
		in[x] = struct{}{}
	}
	inter := 0
	seen := make(map[int32]struct{}, len(b))
	for _, y := range b {
		if _, dup := seen[y]; dup {
			continue
		}
		seen[y] = struct{}{}
		if _, ok := in[y]; ok {
			inter++
		}
	}
	union := len(in) + len(seen) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// SpearmanRho returns the Spearman rank correlation between two score
// vectors over the same vertex set (index-aligned). Ties receive fractional
// (average) ranks, the standard treatment. Returns an error if the lengths
// differ or fewer than two vertices are given.
func SpearmanRho(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 observations, got %d", n)
	}
	rx := fractionalRanks(x)
	ry := fractionalRanks(y)
	// Pearson correlation of the rank vectors (robust to ties).
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("metrics: constant ranking, correlation undefined")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// fractionalRanks assigns 1-based ranks with ties averaged.
func fractionalRanks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
