package stats

import (
	"errors"
	"math"
)

// StudentTQuantile returns the p-th quantile of Student's t distribution
// with nu degrees of freedom.
//
// STEM's error model invokes the CLT with the rule-of-thumb m >= 30
// (paper §3.2). For small clusters that normal approximation is
// optimistic: the sample mean of m observations follows a t distribution
// with m-1 degrees of freedom, whose quantiles exceed the normal's. The
// library offers t-based sizing as an extension for small clusters.
//
// Implementation: Hill's inversion via the incomplete-beta relationship,
// refined with one Newton step against the t CDF.
func StudentTQuantile(p float64, nu float64) (float64, error) {
	if !(p > 0 && p < 1) { // NaN included
		return 0, errors.New("stats: t quantile probability must be in (0,1)")
	}
	if nu <= 0 {
		return 0, errors.New("stats: degrees of freedom must be positive")
	}
	if nu > 200 {
		// Indistinguishable from the normal at this point.
		return NormalQuantile(p)
	}
	if p == 0.5 {
		return 0, nil
	}

	// Bisection on the CDF: robust and plenty fast for the sizes involved.
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if StudentTCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(lo)) {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}

// StudentTCDF returns P(T <= x) for T ~ t(nu).
func StudentTCDF(x, nu float64) float64 {
	if math.IsInf(x, 1) {
		return 1
	}
	if math.IsInf(x, -1) {
		return 0
	}
	// Relationship to the regularized incomplete beta function:
	// P(T <= x) = 1 - 0.5*I_{nu/(nu+x^2)}(nu/2, 1/2) for x >= 0.
	z := nu / (nu + x*x)
	ib := regIncBeta(nu/2, 0.5, z)
	if x >= 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// TScore returns the two-sided t score for a confidence level and sample
// size m (degrees of freedom m-1) — the small-sample analogue of ZScore.
func TScore(confidence float64, m int) (float64, error) {
	if !(confidence > 0 && confidence < 1) { // NaN included
		return 0, errors.New("stats: confidence must be in (0,1)")
	}
	if m < 2 {
		return 0, errors.New("stats: t score requires m >= 2")
	}
	alpha := 1 - confidence
	return StudentTQuantile(1-alpha/2, float64(m-1))
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
