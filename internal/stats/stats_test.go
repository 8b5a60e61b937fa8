package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if !almostEq(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if !almostEq(r.Variance(), 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", r.Variance())
	}
	if !almostEq(r.StdDev(), 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 || r.N() != 0 {
		t.Error("zero-value Running must report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Variance() != 0 || r.SampleVariance() != 0 {
		t.Error("variance of a single observation must be 0")
	}
	if r.Min() != 3 || r.Max() != 3 {
		t.Error("min/max of single observation must equal it")
	}
}

func TestSampleVariance(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if !almostEq(r.SampleVariance(), 2.5, 1e-12) {
		t.Errorf("SampleVariance = %v, want 2.5", r.SampleVariance())
	}
}

func TestRunningMatchesBatchProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		scale := 1 + math.Abs(Mean(xs))
		return almostEq(r.Mean(), Mean(xs), 1e-6*scale) &&
			almostEq(r.StdDev(), StdDev(xs), 1e-6*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDevSlices(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) must be 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean([1,2,3]) != 2")
	}
	if !almostEq(SampleStdDev([]float64{1, 2, 3, 4, 5}), math.Sqrt(2.5), 1e-12) {
		t.Error("SampleStdDev([1..5]) wrong")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	l, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.Alpha, 1, 1e-9) || !almostEq(l.Beta, 2, 1e-9) {
		t.Errorf("fit = %+v, want alpha=1 beta=2", l)
	}
	if !almostEq(l.Predict(10), 21, 1e-9) {
		t.Errorf("Predict(10) = %v, want 21", l.Predict(10))
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths must error")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance must error")
	}
}

func TestFitLineRecoversSlopeProperty(t *testing.T) {
	f := func(a, b float64, n uint8) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		m := int(n%20) + 3
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			xs[i] = float64(i)
			ys[i] = a + b*float64(i)
		}
		l, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return almostEq(l.Alpha, a, 1e-6*(1+math.Abs(a))) && almostEq(l.Beta, b, 1e-6*(1+math.Abs(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
