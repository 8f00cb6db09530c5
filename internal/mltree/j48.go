package mltree

// J48: the C4.5 learner (gain-ratio splits, a minimum leaf weight,
// pessimistic error pruning). treeBuilder grows its tree straight into
// the flat Tree of compiled.go and prunes each subtree as its
// recursion returns; this file holds the learner and the pruning
// arithmetic.

import "math"

// J48 is a C4.5-style decision-tree learner: gain-ratio splits, a
// minimum leaf weight, and optional pessimistic error pruning with the
// standard confidence factor.
type J48 struct {
	// MinLeaf is the minimum total weight per leaf (C4.5 default 2).
	MinLeaf float64
	// Confidence is the pruning confidence factor (C4.5 default 0.25).
	// Zero disables pruning.
	Confidence float64
	// MaxDepth caps tree depth; zero means unlimited.
	MaxDepth int

	// b is the builder every Fit grows its tree with. It keeps its
	// scratch and the column orders of the last fit, where the next one
	// starts its sorts: a learner kept across refits of a dataset that
	// only grows (the ModelTrainer's) allocates only the Tree and its
	// tables, and sorts nearly sorted input. It affects cost alone, never the
	// tree. Because Fit writes it, a J48 must not run two Fits at once.
	b treeBuilder
}

// NewJ48 returns a learner with the C4.5 defaults.
func NewJ48() *J48 { return &J48{MinLeaf: 2, Confidence: 0.25} }

// Name implements Learner.
func (j *J48) Name() string { return "J48" }

// Fit implements Learner.
func (j *J48) Fit(d *Dataset) Classifier {
	minLeaf := j.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	j.b.minLeaf, j.b.maxDepth, j.b.cf = minLeaf, j.MaxDepth, j.Confidence
	return j.b.fit(d)
}

// errorEstimate is the C4.5 pessimistic upper bound on the error rate
// of a leaf covering n instances with e errors, at confidence cf,
// using the normal approximation to the binomial.
func errorEstimate(n, e, cf float64) float64 {
	if n == 0 {
		return 0
	}
	z := zValue(cf)
	f := e / n
	num := f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))
	den := 1 + z*z/n
	return num / den * n
}

// zValue approximates the standard normal quantile for the upper tail
// probability cf (C4.5 uses cf=0.25 → z≈0.6745).
func zValue(cf float64) float64 {
	// Beasley-Springer-Moro style rational approximation of the
	// inverse normal CDF at 1-cf.
	p := 1 - cf
	if p <= 0 || p >= 1 {
		return 0
	}
	// Peter Acklam's approximation.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	plow, phigh := 0.02425, 1-0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}
