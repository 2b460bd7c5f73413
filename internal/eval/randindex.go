// Package eval implements the evaluation metrics of the paper's Section 4:
// the Rand Index for clustering accuracy, 1-NN classification accuracy for
// distance-measure quality, and the leave-one-out warping-window tuning
// used by cDTWopt.
package eval

import "fmt"

// RandIndex computes the Rand Index between a predicted clustering and the
// ground-truth classes:
//
//	R = (TP + TN) / (TP + TN + FP + FN)
//
// over all pairs of series, where TP counts pairs in the same class and the
// same cluster, and TN pairs in different classes and different clusters.
// It is computed in O(n + C·K) via the pair-count contingency table rather
// than the O(n²) pair loop.
func RandIndex(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("eval: RandIndex length mismatch %d vs %d", len(pred), len(truth)))
	}
	n := len(pred)
	if n < 2 {
		return 1
	}
	cont, rowSum, colSum := contingency(pred, truth)
	var sumSq float64
	for _, row := range cont {
		for _, v := range row {
			sumSq += float64(v) * float64(v)
		}
	}
	var sumRowSq, sumColSq float64
	for _, v := range rowSum {
		sumRowSq += float64(v) * float64(v)
	}
	for _, v := range colSum {
		sumColSq += float64(v) * float64(v)
	}
	nf := float64(n)
	total := nf * (nf - 1) / 2
	tp := (sumSq - nf) / 2
	fp := (sumRowSq - sumSq) / 2
	fn := (sumColSq - sumSq) / 2
	tn := total - tp - fp - fn
	return (tp + tn) / total
}

// contingency builds the cluster×class count table with dense reindexing of
// arbitrary label values.
func contingency(pred, truth []int) (cont [][]int, rowSum, colSum []int) {
	predIdx := denseIndex(pred)
	truthIdx := denseIndex(truth)
	cont = make([][]int, len(predIdx))
	for i := range cont {
		cont[i] = make([]int, len(truthIdx))
	}
	rowSum = make([]int, len(predIdx))
	colSum = make([]int, len(truthIdx))
	for i := range pred {
		r := predIdx[pred[i]]
		c := truthIdx[truth[i]]
		cont[r][c]++
		rowSum[r]++
		colSum[c]++
	}
	return cont, rowSum, colSum
}

func denseIndex(labels []int) map[int]int {
	idx := map[int]int{}
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}
