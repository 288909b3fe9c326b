package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The wanted values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6}, 0.125, 0.35, 0.575},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestLogMSE(t *testing.T) {
	// log1p(e-1) = 1 and log1p(0) = 0, so the errors are 1 and 0.
	if got := logMSE([]float64{math.E - 1, 0}, []float64{0, 0}); !near(got, 0.5) {
		t.Errorf("logMSE = %v, want 0.5", got)
	}
	// (log 4 - log 2)^2 = (log 2)^2.
	if got := logMSE([]float64{3}, []float64{1}); !near(got, math.Ln2*math.Ln2) {
		t.Errorf("logMSE = %v, want ln(2)^2", got)
	}
	if !math.IsNaN(logMSE(nil, nil)) || !math.IsNaN(logMSE([]float64{1}, []float64{1, 2})) {
		t.Error("empty or unpaired input should give NaN")
	}
}

func TestTargetStart(t *testing.T) {
	at := func(h, m int) time.Time { return time.Date(2017, 12, 3, h, m, 0, 0, time.UTC) }
	for _, c := range []struct {
		lastSeen time.Time
		horizon  time.Duration
		want     time.Time
	}{
		// The clock truncates to the interval; a one-interval horizon
		// targets the interval the clock is in.
		{at(10, 59), time.Hour, at(10, 0)},
		{at(11, 0), time.Hour, at(11, 0)},
		{at(10, 25), 3 * time.Hour, at(12, 0)},
		// Horizons shorter than the interval still look one interval on.
		{at(10, 25), 30 * time.Minute, at(10, 0)},
	} {
		if got := targetStart(c.lastSeen, time.Hour, c.horizon); !got.Equal(c.want) {
			t.Errorf("targetStart(%v, %v) = %v, want %v", c.lastSeen, c.horizon, got, c.want)
		}
	}
}

func TestNaivePredictors(t *testing.T) {
	hourly := make([]float64, 48)
	for i := range hourly {
		hourly[i] = float64(i)
	}
	// Hours 6..29 average to 17.5.
	if got := mean24(hourly, 30); got != 17.5 {
		t.Errorf("mean24(30) = %v, want 17.5", got)
	}
	// Only hours 0..9 exist before hour 10.
	if got := mean24(hourly, 10); got != 4.5 {
		t.Errorf("mean24(10) = %v, want 4.5", got)
	}
	if got := mean24(hourly, 0); got != 0 {
		t.Errorf("mean24(0) = %v, want 0", got)
	}
	if got := sameHourYesterday(hourly, 30); got != 6 {
		t.Errorf("sameHourYesterday(30) = %v, want 6", got)
	}
	if got := sameHourYesterday(hourly, 23); got != 0 {
		t.Errorf("sameHourYesterday(23) = %v, want 0", got)
	}
	if got := lastInterval(hourly, 30); got != 29 {
		t.Errorf("lastInterval(30) = %v, want 29", got)
	}
}

// TestScoreTargets checks that score pairs each answer with the interval
// it targets and averages over a cluster's member templates.
func TestScoreTargets(t *testing.T) {
	start := time.Date(2017, 12, 1, 0, 0, 0, 0, time.UTC)
	in := &inputs{
		spec:          &spec{replayFrom: 0, replayTo: 3 * time.Hour},
		start:         start,
		hourly:        [][]float64{{1, 3, 7}, {3, 5, 0}},
		templateShape: map[string]int{"a": 0, "b": 1},
		bodies: []body{
			{lastAt: start.Add(59 * time.Minute)},  // targets hour 0
			{lastAt: start.Add(90 * time.Minute)},  // targets hour 1
			{},                                     // empty body: still hour 1
			{lastAt: start.Add(179 * time.Minute)}, // targets hour 2
		},
	}
	fc := func(rate float64, tmpl ...string) []clusterForecast {
		return []clusterForecast{{Templates: tmpl, PerTemplateRate: rate}}
	}
	got := score(in, [][]clusterForecast{fc(2, "a", "b"), fc(4, "a", "b"), fc(3, "a"), fc(7, "a")})
	// Actual per-template means: hour 0 (1+3)/2=2, hour 1 (3+5)/2=4,
	// hour 1 for "a" alone 3, hour 2 for "a" 7: every answer is exact.
	if got.terms != 4 || got.model != 0 {
		t.Fatalf("score = %+v, want 4 exact terms", got)
	}
	// The 24-hour mean at hour 2 for "a" is (1+3)/2 = 2 against actual 7.
	want := (sqLogErr(0, 2) + sqLogErr(2, 4) + sqLogErr(1, 3) + sqLogErr(2, 7)) / 4
	if !near(got.mean24, want) {
		t.Errorf("mean24 log-MSE = %v, want %v", got.mean24, want)
	}
}
