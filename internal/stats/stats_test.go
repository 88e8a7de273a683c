package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]int{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Sum != 110 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 22 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("median = %v", s.Median)
	}
	if s.P90 < 4 || s.P90 > 100 {
		t.Errorf("p90 = %v", s.P90)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Error("string missing n")
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if got := Summarize(nil); got.N != 0 || got.String() != "n=0" {
		t.Errorf("empty = %+v", got)
	}
	s := Summarize([]int{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Mean != 7 || s.P90 != 7 {
		t.Errorf("singleton = %+v", s)
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]int, 1+int(n)%40)
		for i := range xs {
			xs[i] = r.Intn(1000)
		}
		s := Summarize(xs)
		// Order statistics bracket the center measures.
		if s.Median < float64(s.Min) || s.Median > float64(s.Max) {
			return false
		}
		if s.Mean < float64(s.Min) || s.Mean > float64(s.Max) {
			return false
		}
		if s.P90 < s.Median || s.P90 > float64(s.Max) {
			return false
		}
		// Summarize must not mutate its input.
		return s.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []int{5, 1, 4}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Error("input mutated")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []int{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

// Equal neighbours interpolate to exactly their value at every
// fraction; a*(1-f) + b*f used to land one ulp below (3,3 at p30 gave
// 2.9999999999999996), breaking monotonicity.
func TestPercentileEqualNeighbours(t *testing.T) {
	for _, tc := range []struct {
		xs   []int
		p    float64
		want float64
	}{
		{[]int{3, 3}, 30, 3},
		{[]int{3, 3}, 70, 3},
		{[]int{0, 3, 3, 9}, 40, 3},
		{[]int{7, 7, 7}, 10, 7},
		{[]int{99, 99}, 90, 99},
	} {
		if got := Percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]int, 1+r.Intn(30))
		for i := range xs {
			xs[i] = r.Intn(100)
		}
		sort.Ints(xs)
		prev := -1.0
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram([]int{1, 1, 2, 3, 50}, 5)
	if !strings.Contains(out, "#") {
		t.Errorf("no bars:\n%s", out)
	}
	if Histogram(nil, 5) != "(empty)\n" {
		t.Error("empty histogram")
	}
	// All-equal sample: one bucket.
	out = Histogram([]int{4, 4, 4}, 3)
	if strings.Count(out, "\n") != 1 {
		t.Errorf("constant sample should have one bucket:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != "1.50x" {
		t.Errorf("ratio = %s", Ratio(3, 2))
	}
	if Ratio(1, 0) != "inf" {
		t.Error("zero denominator")
	}
}
