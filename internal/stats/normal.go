package stats

import (
	"errors"
	"math"
)

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormalQuantile returns the p-th quantile of the standard normal
// distribution (the probit function). It uses Acklam's rational
// approximation refined with one Halley step against math.Erfc, accurate to
// ~1e-15 over (0, 1).
func NormalQuantile(p float64) (float64, error) {
	if !(p > 0 && p < 1) { // NaN included
		return 0, errors.New("stats: quantile probability must be in (0,1)")
	}

	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step using the exact CDF.
	e := NormalCDF(x, 0, 1) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}

// ZScore returns z_{1-alpha/2}, the two-sided standard score for confidence
// level 1-alpha. For the paper's 95% confidence level (alpha = 0.05) this is
// 1.959964. STEM uses it in Eq. (2), (3), and (6).
func ZScore(confidence float64) (float64, error) {
	if !(confidence > 0 && confidence < 1) { // NaN included
		return 0, errors.New("stats: confidence must be in (0,1)")
	}
	alpha := 1 - confidence
	return NormalQuantile(1 - alpha/2)
}

// MustZScore is ZScore for statically known valid confidence levels.
func MustZScore(confidence float64) float64 {
	z, err := ZScore(confidence)
	if err != nil {
		panic(err)
	}
	return z
}

// Wilson returns the Wilson score interval for k successes in n trials at
// normal quantile z (1.96 for 95 %): the proportions p whose score test
// |k/n − p| ≤ z·sqrt(p(1−p)/n) accepts. Unlike the Wald interval it stays
// inside [0, 1] and is not empty at k = 0 or k = n. With no trials it is
// all of [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p, nf := float64(k)/float64(n), float64(n)
	d := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / d
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / d
	return max(0, center-half), min(1, center+half)
}
