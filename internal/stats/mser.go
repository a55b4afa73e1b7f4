package stats

import "fmt"

// MSERResult describes the truncation point chosen by the MSER-m
// heuristic.
type MSERResult struct {
	// Cut is the number of raw observations to discard from the front of
	// the series (a multiple of the batch size m).
	Cut int
	// Batches is the number of batch means formed.
	Batches int
	// Statistic is the minimised MSER value at the chosen cut.
	Statistic float64
}

// MSERm applies the MSER-m warm-up truncation heuristic (the popular
// simulation "warm-up problem" detector the paper applies in Section 7.4
// as MSER-2). The series xs is grouped into batches of size m; for every
// candidate truncation point d (in batches) the statistic
//
//	z(d) = s²(d) / (k - d)
//
// is evaluated, where s²(d) is the variance of the remaining k-d batch
// means; the d minimising z is returned. Following standard practice the
// search is limited to the first half of the series so the tail estimate
// stays stable.
func MSERm(xs []float64, m int) MSERResult {
	if m <= 0 {
		panic(fmt.Sprintf("stats: MSER batch size %d", m))
	}
	k := len(xs) / m
	if k < 2 {
		return MSERResult{Cut: 0, Batches: k}
	}
	batch := make([]float64, k)
	for i := 0; i < k; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			sum += xs[i*m+j]
		}
		batch[i] = sum / float64(m)
	}

	// Each candidate d recomputes the mean and the sum of squared
	// deviations of batch[d:] from scratch, O(k) per d. The two-pass
	// form is kept on purpose: a running-sum form would change the
	// rounding and could move the chosen cut.
	bestD, bestZ := 0, 0.0
	first := true
	maxD := k / 2
	for d := 0; d <= maxD; d++ {
		n := k - d
		if n < 2 {
			break
		}
		mean, ss := 0.0, 0.0
		for i := d; i < k; i++ {
			mean += batch[i]
		}
		mean /= float64(n)
		for i := d; i < k; i++ {
			diff := batch[i] - mean
			ss += diff * diff
		}
		z := ss / float64(n) / float64(n)
		if first || z < bestZ {
			first = false
			bestD, bestZ = d, z
		}
	}
	return MSERResult{Cut: bestD * m, Batches: k, Statistic: bestZ}
}

// TruncateMSER returns xs with the MSER-m cut removed from the front.
// The returned slice aliases xs.
func TruncateMSER(xs []float64, m int) []float64 {
	r := MSERm(xs, m)
	return xs[r.Cut:]
}

// TransientLength implements the Figure 10 estimator: given the
// per-index mean access delays means[i] (i = packet number within the
// train, averaged over replications) and the steady-state mean, it
// returns the 1-based index of the first packet whose mean lies within
// tol (relative) of the steady-state value *and stays within it* for the
// remainder of the series. It returns len(means) when the series never
// settles (its last point is out of tolerance) and 0 for an empty
// series. One backward scan for the last out-of-tolerance point makes
// it O(len(means)).
func TransientLength(means []float64, steady float64, tol float64) int {
	if tol <= 0 {
		panic(fmt.Sprintf("stats: tolerance %g must be positive", tol))
	}
	if steady == 0 {
		panic("stats: zero steady-state mean")
	}
	within := func(x float64) bool {
		rel := (x - steady) / steady
		if rel < 0 {
			rel = -rel
		}
		return rel <= tol
	}
	// The series settles just after its last out-of-tolerance point.
	last := len(means) - 1
	for last >= 0 && within(means[last]) {
		last--
	}
	if last+1 == len(means) {
		return len(means)
	}
	return last + 2
}

// RunningMeans returns the per-index mean across replications:
// reps[r][i] is observation i of replication r; output[i] is the mean of
// observation i over all replications that reached index i. This is how
// the paper aggregates the access delay of the i-th probing packet over
// 25000 repetitions (Fig. 6).
func RunningMeans(reps [][]float64) []float64 {
	maxLen := 0
	for _, r := range reps {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	sums := make([]float64, maxLen)
	counts := make([]int, maxLen)
	for _, r := range reps {
		for i, v := range r {
			sums[i] += v
			counts[i]++
		}
	}
	out := make([]float64, maxLen)
	for i := range out {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// Column extracts observation i from each replication that has it —
// the per-packet-index sample the KS analysis of Figs. 8 and 9 compares
// against the steady-state pool.
func Column(reps [][]float64, i int) []float64 {
	var out []float64
	for _, r := range reps {
		if i < len(r) {
			out = append(out, r[i])
		}
	}
	return out
}

// Tail concatenates observations from index from (inclusive) onwards
// across all replications — the steady-state pool ("the access delay
// distribution of the last packets").
func Tail(reps [][]float64, from int) []float64 {
	var out []float64
	for _, r := range reps {
		if from < len(r) {
			out = append(out, r[from:]...)
		}
	}
	return out
}
