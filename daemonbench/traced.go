package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"qb5000"
	"qb5000/internal/cluster"
	"qb5000/internal/core"
	"qb5000/internal/forecast"
	"qb5000/internal/mat"
	"qb5000/internal/preprocess"
	"qb5000/internal/sqlparse"
	"qb5000/internal/timeseries"
	"qb5000/internal/tracefile"
)

// span is one timed call. Start and end are nanoseconds since the trace
// began; parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// do wraps fn in a span.
func (t *tracer) do(name string, fn func()) time.Duration {
	t.begin(name)
	fn()
	return t.end()
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// durations lists the durations of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the time
// its direct children cover. The layer is the span name up to its first
// dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocBytes returns the bytes allocated while fn runs.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// tracedRun replays the inputs in process with a span around every call
// into a layer, checks that its answers equal the daemon's, and derives
// the per-layer metrics.
func tracedRun(in *inputs, snapPath string, daemon [][]clusterForecast, spanPath string) (map[string]float64, []string, error) {
	tr := newTracer()
	m := make(map[string]float64)
	var problems []string
	ctx := context.Background()
	sp := in.spec
	cfg := daemonConfig(sp)

	data, err := os.ReadFile(snapPath)
	if err != nil {
		return nil, nil, err
	}
	tr.begin("replay")
	var f *qb5000.Forecaster
	var lerr error
	tr.do("preprocess.Load", func() { f, lerr = qb5000.Load(cfg, bytes.NewReader(data)) })
	if lerr != nil {
		return nil, nil, lerr
	}
	ctl := f.Controller()
	pre := ctl.Preprocessor()
	// The shadow clusterer sees exactly the inputs the controller's own
	// clusterer sees, so its Update can be timed on its own.
	shadow := cluster.New(cluster.Options{Rho: 0.8, Seed: cfg.Seed + 1, Parallelism: daemonParallelism})

	var lines, stmts int
	var observeAlloc uint64
	parsed := make(map[string]bool)
	var forecasts [][]clusterForecast
	var models map[string]forecast.Model
	var fitAlloc uint64
	lastMaintain := 0
	for k, b := range in.bodies {
		if b.maintain {
			lastMaintain = k
		}
	}
	for k, b := range in.bodies {
		tr.begin("replay.observe")
		var entries []tracefile.Entry
		var derr error
		tr.do("tracefile.Read", func() {
			derr = tracefile.Read(bytes.NewReader(b.data), func(e tracefile.Entry) error {
				entries = append(entries, e)
				return nil
			})
		})
		if derr != nil {
			return nil, nil, derr
		}
		lines += len(entries)
		var fresh []string
		for _, e := range entries {
			if !parsed[e.SQL] {
				parsed[e.SQL] = true
				fresh = append(fresh, e.SQL)
			}
		}
		stmts += len(fresh)
		var perr error
		tr.do("sqlparse.Parse", func() {
			for _, s := range fresh {
				if _, err := sqlparse.Parse(s); err != nil {
					perr = err
				}
			}
		})
		tr.do("preprocess.Templatize", func() {
			for _, s := range fresh {
				if _, err := preprocess.Templatize(s); err != nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return nil, nil, perr
		}
		obs := make([]qb5000.Observation, len(entries))
		for i, e := range entries {
			obs[i] = qb5000.Observation{SQL: e.SQL, At: e.At, Count: e.Count}
		}
		var ingested int64
		observeAlloc += allocBytes(func() {
			tr.do("preprocess.ObserveMany", func() {
				for lo := 0; lo < len(obs); lo += observeChunk {
					hi := min(lo+observeChunk, len(obs))
					ingested += f.ObserveMany(obs[lo:hi]).Ingested
				}
			})
		})
		if ingested != b.queries {
			problems = append(problems, fmt.Sprintf("traced body %d: ingested %d of %d", k, ingested, b.queries))
		}
		tr.end()

		if b.maintain {
			tr.begin("replay.maintain")
			now := ctl.LastSeen()
			// Compaction and eviction are idempotent at one instant, so
			// the Refresh below repeats this call as a no-op.
			tr.do("preprocess.Maintain", func() { pre.Maintain(now) })
			var ts []*preprocess.Template
			tr.do("preprocess.Templates", func() { ts = pre.Templates() })
			var uerr error
			tr.do("cluster.Update", func() { _, uerr = shadow.Update(ctx, now, ts) })
			if uerr != nil {
				return nil, nil, uerr
			}
			var rerr error
			alloc := allocBytes(func() { tr.do("core.Refresh", func() { rerr = f.MaintainContext(ctx, now) }) })
			if rerr != nil {
				return nil, nil, rerr
			}
			if k > 0 {
				m["core.refresh_alloc_mb"] += float64(alloc) / (1 << 20)
			}
			if k == lastMaintain {
				fitAlloc = allocBytes(func() { models, err = sideFits(tr, ctl, now) })
				if err != nil {
					return nil, nil, err
				}
			}
			tr.end()
		}

		tr.begin("replay.poll")
		var preds []qb5000.ClusterForecast
		var ferr error
		tr.do("core.Forecast", func() { preds, ferr = f.Forecast(horizon) })
		if ferr != nil {
			return nil, nil, ferr
		}
		var ids []int64
		for _, c := range ctl.Tracked() {
			ids = append(ids, c.MemberIDs()...)
		}
		tr.do("preprocess.CloneByID", func() { pre.CloneByID(ids) })
		tr.end()
		fc := make([]clusterForecast, len(preds))
		for i, p := range preds {
			fc[i] = clusterForecast{ClusterID: p.ClusterID, Templates: p.Templates, PerTemplateRate: p.PerTemplateRate, TotalRate: p.TotalRate}
		}
		forecasts = append(forecasts, fc)
	}

	var snap bytes.Buffer
	var serr error
	tr.do("preprocess.Save", func() { serr = f.Save(&snap) })
	if serr != nil {
		return nil, nil, serr
	}
	var gerr error
	tr.do("workload.Replay", func() { gerr = sp.generatorDay(in.seed) })
	if gerr != nil {
		return nil, nil, gerr
	}
	records := recordHistories(tr, in)
	predict, err := predictTime(tr, ctl, models[sp.model])
	if err != nil {
		return nil, nil, err
	}
	tr.end()

	if err := sameForecasts(daemon, forecasts); err != nil {
		problems = append(problems, "traced answers differ from the daemon's: "+err.Error())
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	st := f.Stats()
	m["tracefile.decode_ns_per_line"] = float64(tr.total("tracefile.Read")) / float64(lines)
	m["sqlparse.parse_ns_per_stmt"] = float64(tr.total("sqlparse.Parse")) / float64(stmts)
	m["preprocess.templatize_ns_per_stmt"] = float64(tr.total("preprocess.Templatize")) / float64(stmts)
	m["preprocess.observe_ns_per_line"] = float64(tr.total("preprocess.ObserveMany")) / float64(lines)
	m["preprocess.observe_alloc_bytes_per_line"] = float64(observeAlloc) / float64(lines)
	if st.CacheHits+st.CacheMisses > 0 {
		m["preprocess.fpcache_hit_ratio"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	} else {
		m["preprocess.fpcache_hit_ratio"] = 0
	}
	// Maintenance layers are summed over the scheduled calls, as maintain_s
	// is; the set-up call after the first body is left out.
	sumAfterFirst := func(name string) float64 {
		ds := tr.durations(name)
		var s float64
		for _, d := range ds[1:] {
			s += d
		}
		return s / float64(time.Millisecond)
	}
	m["preprocess.compact_ms"] = sumAfterFirst("preprocess.Maintain")
	m["preprocess.templates_clone_ms"] = sumAfterFirst("preprocess.Templates")
	m["cluster.update_ms"] = sumAfterFirst("cluster.Update")
	m["core.refresh_ms"] = sumAfterFirst("core.Refresh")
	m["preprocess.clone_by_id_us"] = median(tr.durations("preprocess.CloneByID")) / 1e3
	m["core.forecast_us"] = median(tr.durations("core.Forecast")) / 1e3
	m["preprocess.save_ms"] = ms(tr.total("preprocess.Save"))
	m["preprocess.snapshot_mb"] = float64(snap.Len()) / (1 << 20)
	m["preprocess.load_ms"] = ms(tr.total("preprocess.Load"))
	m["timeseries.record_ns"] = float64(tr.total("timeseries.Record")) / float64(records)
	m["timeseries.history_mb"] = float64(pre.HistoryBytes()) / (1 << 20)
	m["cluster.clusters"] = float64(ctl.Clusterer().Len())
	m["forecast.lr_fit_ms"] = ms(tr.total("forecast.LR.Fit"))
	m["forecast.rnn_fit_ms"] = ms(tr.total("forecast.RNN.Fit"))
	m["forecast.kr_fit_ms"] = ms(tr.total("forecast.KR.Fit"))
	m["forecast.fit_alloc_mb"] = float64(fitAlloc) / (1 << 20)
	m["forecast.predict_us"] = predict / 1e3
	m["workload.generate_s"] = tr.total("workload.Replay").Seconds()

	if err := tr.write(spanPath); err != nil {
		return nil, nil, err
	}
	printSelfTimes(os.Stderr, tr)
	return m, problems, nil
}

// trainingMatrix rebuilds the matrix the controller trains on at now: the
// tracked clusters' per-template hourly arrivals, log1p-scaled, over the
// three-week training window clipped to the first observation.
func trainingMatrix(ctl *core.Controller, now time.Time) *mat.Matrix {
	tracked := ctl.Tracked()
	from := now.Add(-21 * day).Truncate(interval)
	var first time.Time
	for _, t := range ctl.Preprocessor().Templates() {
		if first.IsZero() || t.FirstSeen.Before(first) {
			first = t.FirstSeen
		}
	}
	if fs := first.Truncate(interval); fs.After(from) {
		from = fs
	}
	to := now.Truncate(interval)
	rows := int(to.Sub(from) / interval)
	return logMatrix(tracked, from, rows)
}

// logMatrix fills rows intervals from from with the log1p per-template
// arrivals of each tracked cluster.
func logMatrix(tracked []*cluster.Cluster, from time.Time, rows int) *mat.Matrix {
	m := mat.New(rows, len(tracked))
	for j, cl := range tracked {
		s := cluster.CenterSeries(cl, from, from.Add(time.Duration(rows)*interval), interval)
		for i := 0; i < rows && i < s.Len(); i++ {
			m.Set(i, j, timeseries.Log1pClamped(s.Data[i]))
		}
	}
	return m
}

// sideFits fits LR, RNN and KR on the training matrix of the last
// scheduled maintenance, each in its own span.
func sideFits(tr *tracer, ctl *core.Controller, now time.Time) (map[string]forecast.Model, error) {
	hist := trainingMatrix(ctl, now)
	cfg := forecast.Config{Lag: 24, Horizon: int(horizon / interval), Outputs: hist.Cols, Seed: 1 + int64(horizon/time.Minute)}
	out := make(map[string]forecast.Model)
	for _, name := range []string{"LR", "RNN", "KR"} {
		model, err := forecast.NewByName(name, cfg)
		if err != nil {
			return nil, err
		}
		var ferr error
		tr.do("forecast."+name+".Fit", func() { ferr = model.Fit(hist) })
		if ferr != nil {
			return nil, fmt.Errorf("side fit %s: %w", name, ferr)
		}
		out[name] = model
	}
	return out, nil
}

// predictTime is the median Predict time of the workload's model, fitted
// by sideFits, over repeated calls on the final input window.
func predictTime(tr *tracer, ctl *core.Controller, model forecast.Model) (float64, error) {
	now := ctl.LastSeen().Truncate(interval)
	recent := logMatrix(ctl.Tracked(), now.Add(-24*interval), 24)
	var ds []float64
	var err error
	for r := 0; r < 21 && err == nil; r++ {
		ds = append(ds, float64(tr.do("forecast.Predict", func() { _, err = model.Predict(recent) })))
	}
	return median(ds), err
}

// recordHistories replays each shape's trace lines into a fresh history,
// one Record call per line, and returns the number of calls.
func recordHistories(tr *tracer, in *inputs) int {
	hs := make([]*timeseries.History, len(in.shapes))
	n := 0
	tr.do("timeseries.Record", func() {
		for _, list := range [][]entry{in.prefix, in.replay} {
			for _, e := range list {
				h := hs[e.shape]
				if h == nil {
					h = timeseries.NewHistory(e.at)
					hs[e.shape] = h
				}
				h.Record(e.at, float64(e.count))
				n++
			}
		}
	})
	return n
}

func printSelfTimes(w io.Writer, tr *tracer) {
	self := tr.selfTimes()
	var total time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "traced run: %d spans, self time by layer\n", len(tr.spans))
	for _, name := range names {
		fmt.Fprintf(w, "  %-12s %10.1f ms %5.1f%%\n", name, float64(self[name])/1e6, 100*float64(self[name])/float64(total))
	}
}
