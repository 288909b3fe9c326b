package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, with Python 3.10's clamping). It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// targetStart is the start of the interval a forecast answers for. The
// controller's clock is the newest ingested timestamp truncated to the
// prediction interval; the model's input window ends there, and a model
// trained for a horizon of h intervals predicts the row h intervals past
// the window's end, so the target starts h-1 intervals after the clock.
func targetStart(lastSeen time.Time, interval, horizon time.Duration) time.Time {
	steps := horizon / interval
	if steps < 1 {
		steps = 1
	}
	return lastSeen.Truncate(interval).Add((steps - 1) * interval)
}

// sqLogErr is one term of the paper's log-space error (§7.2).
func sqLogErr(pred, actual float64) float64 {
	d := math.Log1p(pred) - math.Log1p(actual)
	return d * d
}

// logMSE is the mean of the squared log1p errors of paired predictions and
// actual values.
func logMSE(pred, actual []float64) float64 {
	if len(pred) == 0 || len(pred) != len(actual) {
		return math.NaN()
	}
	var sum float64
	for i := range pred {
		sum += sqLogErr(pred[i], actual[i])
	}
	return sum / float64(len(pred))
}

// mean24 is the 24-hour-mean predictor: the mean of the 24 hourly counts
// before index t. Hours before the series starts count as absent, not as
// zero.
func mean24(hourly []float64, t int) float64 {
	from := t - 24
	if from < 0 {
		from = 0
	}
	if t <= from {
		return 0
	}
	var sum float64
	for _, v := range hourly[from:t] {
		sum += v
	}
	return sum / float64(t-from)
}

// sameHourYesterday predicts the count 24 hours before index t.
func sameHourYesterday(hourly []float64, t int) float64 {
	if t < 24 {
		return 0
	}
	return hourly[t-24]
}

// lastInterval predicts the count of the hour before index t.
func lastInterval(hourly []float64, t int) float64 {
	if t < 1 {
		return 0
	}
	return hourly[t-1]
}
