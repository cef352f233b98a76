package main

import (
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// maxOf returns the largest value of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile returns the nearest-rank p-th percentile of xs: the value
// at rank ceil(p/100 * n) of the sorted samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n/100 landing a hair above an integer
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its value. ok is false when even the
// median lacks that many samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if n-rank(n, p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// requestFailed classifies one request's outcome for fail_frac: a
// transport error or timeout, a refusal (503 or 429) and any other
// non-2xx status all count as failed.
func requestFailed(status int, err error) bool {
	if err != nil {
		return true
	}
	return status < 200 || status > 299
}

// failFrac is failed over attempted, 0 when nothing was attempted.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric or workload name is well formed.
func validName(s string) bool { return nameRE.MatchString(s) }
