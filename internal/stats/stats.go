// Package stats provides the small statistical toolkit used by the
// experiment harness: running moments, binomial proportion
// estimates with confidence intervals, and fairness indices over
// per-philosopher meal counts.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a stream of float64 observations with Welford's
// algorithm, providing mean and variance without storing the stream.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the sample mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}

// String formats the summary as "mean ± ci (n=...)".
func (r *Running) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", r.Mean(), r.CI95(), r.n)
}

// Proportion is a Bernoulli success-rate estimator.
type Proportion struct {
	successes int64
	trials    int64
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// Successes returns the number of successes.
func (p *Proportion) Successes() int64 { return p.successes }

// Trials returns the number of trials.
func (p *Proportion) Trials() int64 { return p.trials }

// Estimate returns the point estimate successes/trials (0 with no trials).
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Wilson95 returns the 95% Wilson score interval for the proportion, which
// behaves sensibly even for extreme counts (0 or all successes).
func (p *Proportion) Wilson95() (lo, hi float64) {
	if p.trials == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(p.trials)
	phat := p.Estimate()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String formats the estimate with its Wilson interval.
func (p *Proportion) String() string {
	lo, hi := p.Wilson95()
	return fmt.Sprintf("%.3f [%.3f, %.3f] (%d/%d)", p.Estimate(), lo, hi, p.successes, p.trials)
}

// JainIndex computes Jain's fairness index over the given per-philosopher
// quantities: (Σx)² / (n·Σx²). It is 1 for perfectly equal allocations and
// approaches 1/n when a single philosopher gets everything. It returns 1 for
// an empty or all-zero input (an empty system is vacuously fair).
func JainIndex(xs []int64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
