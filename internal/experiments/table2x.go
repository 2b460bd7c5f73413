package experiments

import "kshape/internal/dist"

// Table2Extended compares SBD and ED against the wider elastic-measure
// family (LCSS, EDR, ERP, MSM, TWED) from the comparative studies the
// paper's Section 2.3 builds on. The paper itself restricts Table 2 to
// ED/DTW/cDTW because those studies found them dominant; this experiment
// verifies that conclusion holds on the synthetic archive too. ED is the
// baseline, Rows[0].
func Table2Extended(cfg Config) Table2Result {
	measures := append([]dist.Measure{dist.EDMeasure{}, dist.SBDMeasure{}}, dist.ElasticMeasures()...)
	methods := make([]method, len(measures))
	for i, m := range measures {
		methods[i] = accuracyMethod(m.Name(), cfg.oneNN(m))
	}
	return Table2Result{Comparison: compare(cfg.sweep(methods...))}
}
