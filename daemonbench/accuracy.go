package main

import "time"

// accuracy scores one series of forecast answers and three naive
// predictors on the same targets: per poll and tracked cluster, the
// predicted per-template rate against the mean per-template arrivals the
// benchmark sent in the interval the forecast targets.
type accuracy struct {
	model, mean24, sameHour, last float64
	terms                         int
}

func score(in *inputs, forecasts [][]clusterForecast) accuracy {
	var pred, actual, m24, yday, last []float64
	var lastSeen time.Time
	end := in.start.Add(in.spec.replayTo)
	for k, fc := range forecasts {
		if at := in.bodies[k].lastAt; at.After(lastSeen) {
			lastSeen = at
		}
		t := targetStart(lastSeen, interval, horizon)
		if t.Add(interval).After(end) {
			continue
		}
		h := int(t.Sub(in.start) / time.Hour)
		for _, c := range fc {
			var a, b24, by, bl float64
			for _, tmpl := range c.Templates {
				series := in.hourly[in.templateShape[tmpl]]
				a += series[h]
				b24 += mean24(series, h)
				by += sameHourYesterday(series, h)
				bl += lastInterval(series, h)
			}
			n := float64(len(c.Templates))
			pred = append(pred, c.PerTemplateRate)
			actual = append(actual, a/n)
			m24 = append(m24, b24/n)
			yday = append(yday, by/n)
			last = append(last, bl/n)
		}
	}
	return accuracy{
		model:    logMSE(pred, actual),
		mean24:   logMSE(m24, actual),
		sameHour: logMSE(yday, actual),
		last:     logMSE(last, actual),
		terms:    len(pred),
	}
}
