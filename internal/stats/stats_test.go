package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	t.Parallel()
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.n != 8 {
		t.Errorf("n = %d", r.n)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic data set is 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-9 {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.CI95() <= 0 {
		t.Error("CI95 should be positive for varied data")
	}
	if !strings.Contains(r.String(), "n=8") {
		t.Errorf("String = %q", r.String())
	}
}

func TestRunningZeroValue(t *testing.T) {
	t.Parallel()
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.CI95() != 0 || r.n != 0 {
		t.Error("zero-value Running should report zeros")
	}
}

func TestRunningMatchesDirectComputationProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		sum := 0.0
		for _, v := range raw {
			r.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		return math.Abs(r.Mean()-mean) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportion(t *testing.T) {
	t.Parallel()
	var p Proportion
	for i := 0; i < 100; i++ {
		p.Add(i < 25)
	}
	if p.Estimate() != 0.25 {
		t.Errorf("Estimate = %v", p.Estimate())
	}
	lo, hi := p.Wilson95()
	if lo >= 0.25 || hi <= 0.25 {
		t.Errorf("Wilson interval [%v, %v] should contain the point estimate", lo, hi)
	}
	if lo < 0.15 || hi > 0.37 {
		t.Errorf("Wilson interval [%v, %v] implausibly wide for n=100", lo, hi)
	}
	if p.Successes() != 25 || p.Trials() != 100 {
		t.Error("counters wrong")
	}
	if !strings.Contains(p.String(), "25/100") {
		t.Errorf("String = %q", p.String())
	}
}

func TestProportionEdgeCases(t *testing.T) {
	t.Parallel()
	var empty Proportion
	lo, hi := empty.Wilson95()
	if lo != 0 || hi != 1 {
		t.Errorf("empty proportion interval [%v, %v], want [0, 1]", lo, hi)
	}
	all := Proportion{successes: 50, trials: 50}
	lo, hi = all.Wilson95()
	if hi != 1 || lo < 0.9 {
		t.Errorf("all-success interval [%v, %v]", lo, hi)
	}
	none := Proportion{trials: 50}
	lo, hi = none.Wilson95()
	if lo != 0 || hi > 0.1 {
		t.Errorf("no-success interval [%v, %v]", lo, hi)
	}
}

func TestJainIndex(t *testing.T) {
	t.Parallel()
	if got := JainIndex([]int64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocation index = %v, want 1", got)
	}
	got := JainIndex([]int64{10, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single-winner index = %v, want 0.25", got)
	}
	if JainIndex(nil) != 1 || JainIndex([]int64{0, 0}) != 1 {
		t.Error("degenerate Jain index should be 1")
	}
	mixed := JainIndex([]int64{4, 6})
	if mixed <= 0.25 || mixed >= 1 {
		t.Errorf("mixed allocation index = %v, expected strictly between 1/n and 1", mixed)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		idx := JainIndex(xs)
		return idx >= 1/float64(len(xs))-1e-9 && idx <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
