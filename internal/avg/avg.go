// Package avg implements the centroid methods the k-Shape paper's
// evaluation runs — arithmetic mean, DBA, and the KSC spectral centroid —
// plus the paper's own contribution, shape extraction (Section 3.2,
// Algorithm 2), which computes the centroid as the dominant eigenvector of
// a centered Gram matrix of SBD-aligned sequences.
//
// Every method has the core.CentroidFunc shape
// func(members [][]float64, ref []float64) []float64: ref is the previous
// centroid, used by the methods that align members toward a reference
// before averaging (shape extraction, DBA initialization), and each must
// tolerate a nil or all-zero ref. The returned slice is fresh (not aliased
// to any input).
package avg

// Mean computes the coordinate-wise arithmetic mean of the cluster — the
// k-means centroid under Euclidean distance (Section 2.1, "arithmetic mean
// property"). It returns a zero series of length len(ref) for an empty
// cluster (or nil if ref is also nil).
func Mean(cluster [][]float64, ref []float64) []float64 {
	if len(cluster) == 0 {
		if ref == nil {
			return nil
		}
		return make([]float64, len(ref))
	}
	m := len(cluster[0])
	out := make([]float64, m)
	for _, x := range cluster {
		for i, v := range x {
			out[i] += v
		}
	}
	inv := 1.0 / float64(len(cluster))
	for i := range out {
		out[i] *= inv
	}
	return out
}
