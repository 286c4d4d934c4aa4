package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: with fewer, the "tail" is one or two unlucky requests.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, and ok=false when p is a tail percentile (p > 50) with fewer than
// minBeyond samples above its rank. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return math.NaN(), false
	}
	return s[rank-1], true
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseCounters reads the unlabelled samples of a Prometheus text page:
// "name value" lines. Labelled series and comments are skipped; the
// benchmark only needs totals.
func parseCounters(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		// An optional timestamp may follow the value.
		val, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// counterDelta returns after[name] − before[name]; a counter missing from
// either page reads as 0 there.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
