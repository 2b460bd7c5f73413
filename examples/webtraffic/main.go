// Web-traffic example: clustering attention patterns of online content —
// the domain that motivated the KSC baseline (Yang & Leskovec). Articles
// and videos receive traffic in characteristic temporal shapes (sudden
// spike with fast decay, anticipation build-up, steady periodic interest),
// but the spike may land on any day and the absolute traffic volume varies
// by orders of magnitude. Shape-based clustering recovers the pattern
// classes, and Predict routes newly published content to an existing
// pattern for, e.g., cache-warming decisions.
//
// Run with:
//
//	go run ./examples/webtraffic
package main

import (
	"fmt"
	"math"
	"math/rand"

	"kshape"
)

const days = 96 // ~3 months of daily hits

// patternNames describes the three generator classes.
var patternNames = []string{"spike+decay", "build-up", "weekly-periodic"}

// traffic synthesizes one content item's daily-hit curve for a class.
func traffic(class int, rng *rand.Rand) []float64 {
	x := make([]float64, days)
	peak := 20 + rng.Intn(30) // event day varies per item
	volume := math.Pow(10, 1+2*rng.Float64())
	for i := range x {
		t := float64(i - peak)
		var v float64
		switch class {
		case 0: // sudden spike, fast power-law decay
			if i >= peak {
				v = 1 / math.Pow(1+t/2, 2)
			}
		case 1: // slow anticipation build-up to the event, gentler drop
			if i <= peak {
				v = math.Exp(t / 15)
			} else {
				v = math.Exp(-t / 8)
			}
		default: // steady weekly periodicity
			v = 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/7)
		}
		x[i] = volume*v + 0.02*volume*rng.NormFloat64()
	}
	return x
}

func main() {
	rng := rand.New(rand.NewSource(11))
	var data [][]float64
	var truth []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			data = append(data, traffic(c, rng))
			truth = append(truth, c)
		}
	}

	res, err := kshape.Cluster(data, 3, kshape.Options{Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("clustered %d traffic curves into 3 shape patterns "+
		"(Rand Index vs generator classes: %.3f)\n",
		len(data), kshape.RandIndex(res.Labels, truth))

	// Describe each discovered cluster by its majority generator class.
	counts := make([]map[int]int, 3)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for i, l := range res.Labels {
		counts[l][truth[i]]++
	}
	for j, c := range counts {
		bestClass, bestN, total := 0, 0, 0
		for cls, n := range c {
			total += n
			if n > bestN {
				bestClass, bestN = cls, n
			}
		}
		fmt.Printf("cluster %d: %d items, %d%% %q\n",
			j, total, 100*bestN/max(total, 1), patternNames[bestClass])
	}

	// Route fresh content to a pattern without re-clustering.
	fresh := make([][]float64, 3)
	for c := range fresh {
		fresh[c] = traffic(c, rng)
	}
	assigned := kshape.Predict(res.Centroids, fresh, false)
	for c, cl := range assigned {
		fmt.Printf("new %q item -> cluster %d\n", patternNames[c], cl)
	}
}
