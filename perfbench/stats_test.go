package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{15, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	beyond := 0
	for _, v := range s {
		if v > percentile(s, tailPercentile(len(s))) {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond the reported tail, want >= %d", beyond, minBeyond)
	}
}
