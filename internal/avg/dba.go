package avg

import "kshape/internal/dist"

// DBA computes the DTW Barycenter Average of a cluster (Petitjean et al.,
// referenced as the most robust DTW averaging method in Section 2.5) —
// k-DBA's centroid step. Starting from ref (or the first member when ref
// is nil/zero), it warps every member onto the current average with
// unconstrained DTW and re-estimates every coordinate as the barycenter of
// all member points mapped to it.
//
// It makes one refinement pass per call. The original DBA paper iterates
// to convergence; in the k-means context one refinement per clustering
// iteration suffices (the paper's experimental setup refines centroids
// "once" per run, Section 4).
func DBA(cluster [][]float64, ref []float64) []float64 {
	if len(cluster) == 0 {
		if ref == nil {
			return nil
		}
		return append([]float64(nil), ref...)
	}
	m := len(cluster[0])
	avg := make([]float64, m)
	if ref == nil || isAllZero(ref) {
		copy(avg, cluster[0])
	} else {
		copy(avg, ref)
	}
	sum := make([]float64, m)
	count := make([]int, m)
	for _, x := range cluster {
		path, _ := dist.WarpingPath(avg, x, -1)
		for _, p := range path {
			sum[p[0]] += x[p[1]]
			count[p[0]]++
		}
	}
	for i := range avg {
		if count[i] == 0 {
			continue // keep previous coordinate (cannot happen with a valid path)
		}
		avg[i] = sum[i] / float64(count[i])
	}
	return avg
}
