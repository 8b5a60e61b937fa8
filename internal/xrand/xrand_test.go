package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.state == c2.state {
		t.Fatal("successive splits must produce distinct children")
	}
	// Child streams should not be trivially correlated with each other.
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling streams matched %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestUniform(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.2, 0.4)
		if v < 0.2 || v >= 0.4 {
			t.Fatalf("Uniform(0.2,0.4) out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(61)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Uniform(0.6, 0.8)
	}
	if mean := sum / n; math.Abs(mean-0.7) > 0.005 {
		t.Errorf("Uniform(0.6,0.8) mean = %v, want ~0.7", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(8)
	const n = 100000
	trues := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	p := float64(trues) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v, want ~0.3", p)
	}
}

func TestExpFloat64(t *testing.T) {
	r := New(9)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(2.0)
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpFloat64(0) must panic")
		}
	}()
	r.ExpFloat64(0)
}

func TestNormFloat64(t *testing.T) {
	r := New(10)
	const n = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestPoisson(t *testing.T) {
	r := New(11)
	const n = 50000
	for _, mean := range []float64{0.5, 4, 30} {
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean must be 0")
	}
}

func TestPoissonLargeMean(t *testing.T) {
	r := New(12)
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(1000)
	}
	got := float64(sum) / n
	if math.Abs(got-1000) > 5 {
		t.Errorf("Poisson(1000) mean = %v", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}
