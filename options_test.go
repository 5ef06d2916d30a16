package stemroot

import (
	"errors"
	"math"
	"testing"
)

// planAt runs the three planning entry points with opts over one small
// profile and returns their errors: Sample, SampleStream, and a
// StreamPlanner fed the profile and asked for its Plan. The two streaming
// ones get sopts.
func planAt(opts Options, sopts StreamOptions) [3]error {
	names, times := syntheticProfile(600, 4)
	var errs [3]error
	_, errs[0] = Sample(names, times, opts)
	_, errs[1] = SampleStream(sliceScanner{names, times}, opts, sopts)
	sp, err := NewStreamPlanner(opts, sopts)
	if err == nil {
		for i := range names {
			sp.Add(names[i], times[i])
		}
		_, err = sp.Plan()
	}
	errs[2] = err
	return errs
}

var entryPoints = [3]string{"Sample", "SampleStream", "StreamPlanner"}

// TestOptionsOutsideTheDomain: only a zero field means "the default". A
// negative, NaN or too-large value is refused by name at every entry point
// — never planned at 5 %/95 % as if unset, and never a panic: 1 − 2⁻⁵³
// passes the (0,1) test and has no z-score.
func TestOptionsOutsideTheDomain(t *testing.T) {
	lastBelowOne := math.Nextafter(1, 0)
	for _, c := range []struct {
		name string
		opts Options
		want error
	}{
		{"negative epsilon", Options{Epsilon: -0.05}, ErrEpsilon},
		{"NaN epsilon", Options{Epsilon: math.NaN()}, ErrEpsilon},
		{"epsilon 1", Options{Epsilon: 1}, ErrEpsilon},
		{"epsilon +Inf", Options{Epsilon: math.Inf(1)}, ErrEpsilon},
		{"negative confidence", Options{Confidence: -0.95}, ErrConfidence},
		{"NaN confidence", Options{Confidence: math.NaN()}, ErrConfidence},
		{"confidence 1", Options{Confidence: 1}, ErrConfidence},
		{"confidence -Inf", Options{Confidence: math.Inf(-1)}, ErrConfidence},
		{"last confidence below 1", Options{Confidence: lastBelowOne}, ErrConfidence},
		{"the same, small-sample t", Options{Confidence: lastBelowOne, SmallSampleT: true}, ErrConfidence},
		{"the same, flat", Options{Confidence: lastBelowOne, Flat: true}, ErrConfidence},
		{"epsilon is reported first", Options{Epsilon: -1, Confidence: 2}, ErrEpsilon},
		{"negative parallelism", Options{Parallelism: -1}, ErrParallelism},
		{"parallelism -3, flat", Options{Parallelism: -3, Flat: true}, ErrParallelism},
		{"parallelism MinInt", Options{Parallelism: math.MinInt}, ErrParallelism},
	} {
		for i, err := range planAt(c.opts, StreamOptions{}) {
			if !errors.Is(err, c.want) {
				t.Errorf("%s: %s returned %v, want %v", c.name, entryPoints[i], err, c.want)
			}
		}
	}
}

// TestOptionsAtTheEdgeOfTheDomain: what is inside the domain plans, up to
// the last confidence that has a z-score and down to the smallest ε.
func TestOptionsAtTheEdgeOfTheDomain(t *testing.T) {
	lastBelowOne := math.Nextafter(1, 0)
	for _, opts := range []Options{
		{},
		{Confidence: math.Nextafter(lastBelowOne, 0)}, // z ≈ 8.2
		{Confidence: math.SmallestNonzeroFloat64},     // z = 0
		{Epsilon: math.SmallestNonzeroFloat64},        // everything is sampled
		{Epsilon: lastBelowOne},
		{Parallelism: 1},
	} {
		for i, err := range planAt(opts, StreamOptions{}) {
			if err != nil {
				t.Errorf("%+v: %s returned %v", opts, entryPoints[i], err)
			}
		}
	}
	for i, err := range planAt(Options{}, StreamOptions{ReservoirCap: 1}) {
		if err != nil {
			t.Errorf("ReservoirCap 1: %s returned %v", entryPoints[i], err)
		}
	}
	if _, err := SampleSize(10, 1, 1, 0.05, lastBelowOne); !errors.Is(err, ErrConfidence) {
		t.Errorf("SampleSize at the last confidence below 1: %v", err)
	}
	if _, err := SampleSize(10, 1, 1, math.NaN(), 0.95); !errors.Is(err, ErrEpsilon) {
		t.Errorf("SampleSize at NaN epsilon: %v", err)
	}
}

// TestStreamOptionsOutsideTheDomain: a negative ReservoirCap is refused by
// name at both streaming entry points — never a silent 8192-slot reservoir.
// Sample keeps every row and has no reservoir to refuse.
func TestStreamOptionsOutsideTheDomain(t *testing.T) {
	for _, rcap := range []int{-1, -8192, math.MinInt} {
		errs := planAt(Options{}, StreamOptions{ReservoirCap: rcap})
		if errs[0] != nil {
			t.Errorf("ReservoirCap %d: Sample returned %v", rcap, errs[0])
		}
		for i, err := range errs[1:] {
			if !errors.Is(err, ErrReservoirCap) {
				t.Errorf("ReservoirCap %d: %s returned %v, want %v", rcap, entryPoints[i+1], err, ErrReservoirCap)
			}
		}
	}
}
