// Package stats provides the small descriptive-statistics helpers the
// reporting layer uses to summarize per-race instance distributions
// (Figures 3–5) and performance samples.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample of non-negative integers.
type Summary struct {
	N      int
	Min    int
	Max    int
	Sum    int
	Mean   float64
	Median float64
	P90    float64
}

// Summarize computes a Summary (zero value for an empty sample).
func Summarize(xs []int) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	s := Summary{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
	}
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = float64(s.Sum) / float64(s.N)
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	return s
}

// Percentile interpolates the p-th percentile (0..100) of a sorted sample.
func Percentile(sorted []int, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return float64(sorted[lo])
	}
	// a + (b-a)*f rather than a*(1-f) + b*f: it is exact when a == b and
	// never dips below a, so the percentile is monotone in p.
	a, b := float64(sorted[lo]), float64(sorted[hi])
	return a + (b-a)*(rank-float64(lo))
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%d median=%.1f mean=%.1f p90=%.1f max=%d total=%d",
		s.N, s.Min, s.Median, s.Mean, s.P90, s.Max, s.Sum)
}

// Histogram buckets a sample into at most maxBuckets equal-width bins and
// renders them as ASCII rows ("lo-hi | count ###").
func Histogram(xs []int, maxBuckets int) string {
	if len(xs) == 0 {
		return "(empty)\n"
	}
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	s := Summarize(xs)
	width := (s.Max - s.Min + maxBuckets) / maxBuckets
	if width < 1 {
		width = 1
	}
	counts := make(map[int]int)
	maxCount := 0
	for _, x := range xs {
		b := (x - s.Min) / width
		counts[b]++
		if counts[b] > maxCount {
			maxCount = counts[b]
		}
	}
	var b strings.Builder
	for bucket := 0; bucket*width+s.Min <= s.Max; bucket++ {
		lo := s.Min + bucket*width
		hi := lo + width - 1
		n := counts[bucket]
		bar := strings.Repeat("#", scaleBar(n, maxCount, 30))
		fmt.Fprintf(&b, "  %5d-%-5d | %4d %s\n", lo, hi, n, bar)
	}
	return b.String()
}

func scaleBar(v, max, width int) int {
	if max == 0 {
		return 0
	}
	n := v * width / max
	if n == 0 && v > 0 {
		n = 1
	}
	return n
}

// Ratio formats a/b as "x.xx" with a zero-denominator guard.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
