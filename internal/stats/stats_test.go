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

func TestRunningMerge(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 9, 3, 7, 4, 6, 10}
	var whole, a, b Running
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEq(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEq(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Merge(&b) // both empty: no panic
	b.Add(5)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Error("merging into empty must copy")
	}
	var c Running
	a.Merge(&c) // merging empty into non-empty: unchanged
	if a.N() != 1 {
		t.Error("merging empty must be a no-op")
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

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.9, 9.1},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of empty must be 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 5)
	for _, x := range []float64{0.05, 0.25, 0.25, 0.55, 0.95, 1.5, -0.5} {
		h.Add(x)
	}
	want := []int{2, 2, 1, 0, 2} // out-of-range values clamp to edge bins
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("bin %d = %d, want %d (%v)", i, h.Counts[i], c, h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	for i := 0; i < 3; i++ {
		h.Add(1)
	}
	h.Add(9)
	fr := h.Fractions()
	if !almostEq(fr[0], 0.75, 1e-12) || !almostEq(fr[1], 0.25, 1e-12) {
		t.Errorf("Fractions = %v", fr)
	}
	empty := NewHistogram(0, 1, 3)
	for _, f := range empty.Fractions() {
		if f != 0 {
			t.Error("empty histogram fractions must be zero")
		}
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if !almostEq(h.BinCenter(0), 1, 1e-12) || !almostEq(h.BinCenter(4), 9, 1e-12) {
		t.Errorf("BinCenter wrong: %v %v", h.BinCenter(0), h.BinCenter(4))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramConservesTotal(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(0, 1, 7)
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
