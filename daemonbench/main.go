// Command daemonbench measures the qb5000d daemon end to end. For one
// workload and seed it renders the trace traffic, saves a prefix snapshot
// with the code under test, then runs rounds until the time is up: each
// round launches the daemon on the snapshot and replays the traffic into
// it over one keep-alive loopback connection, with /maintain at fixed
// simulated instants and a /forecast after every request, and ends with a
// restart check. With -trace 1 it runs one such round and then replays the
// same inputs in process with a span around every call into a layer,
// reporting per-layer metrics instead.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Run it through run.sh, which builds both binaries:
//
//	bash daemonbench/run.sh --workload bustracker-days --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric the benchmark reports and its unit.
var units = map[string]string{
	"setup_s":            "s",
	"ingest_lines_per_s": "lines/s",
	"maintain_s":         "s",
	"forecast_p50_ms":    "ms",
	"forecast_logmse":    "log-MSE",
	"rss_p50_mb":         "MiB",

	"server.observe_p50_ms":                   "ms",
	"admission.shed":                          "count",
	"tracefile.decode_ns_per_line":            "ns",
	"sqlparse.parse_ns_per_stmt":              "ns",
	"preprocess.templatize_ns_per_stmt":       "ns",
	"preprocess.observe_ns_per_line":          "ns",
	"preprocess.observe_alloc_bytes_per_line": "B",
	"preprocess.fpcache_hit_ratio":            "ratio",
	"preprocess.compact_ms":                   "ms",
	"preprocess.templates_clone_ms":           "ms",
	"preprocess.clone_by_id_us":               "us",
	"preprocess.save_ms":                      "ms",
	"preprocess.snapshot_mb":                  "MiB",
	"preprocess.load_ms":                      "ms",
	"timeseries.record_ns":                    "ns",
	"timeseries.history_mb":                   "MiB",
	"cluster.update_ms":                       "ms",
	"cluster.clusters":                        "count",
	"forecast.lr_fit_ms":                      "ms",
	"forecast.rnn_fit_ms":                     "ms",
	"forecast.kr_fit_ms":                      "ms",
	"forecast.fit_alloc_mb":                   "MiB",
	"forecast.predict_us":                     "us",
	"core.refresh_ms":                         "ms",
	"core.refresh_alloc_mb":                   "MiB",
	"core.forecast_us":                        "us",
	"workload.generate_s":                     "s",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: bustracker-days, hot-ingest or mooc-poll")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "how long to run rounds")
		trace   = flag.Int("trace", 0, "1 = one daemon round plus the traced in-process run")
		bin     = flag.String("daemon", "", "qb5000d binary")
		dir     = flag.String("dir", "daemonbench", "the benchmark's directory (holds digests.json)")
		out     = flag.String("out", ".bench_out", "directory for scratch files and span dumps")
		pin     = flag.Bool("pin", false, "re-render the pinned inputs and rewrite digests.json")
		spr     = flag.Bool("spread", false, "read result lines on stdin; print each metric's median, quartiles and spread")
	)
	flag.Parse()
	var err error
	switch {
	case *pin:
		err = writeDigests(filepath.Join(*dir, "digests.json"))
	case *spr:
		err = printSpread(os.Stdin, os.Stdout)
	default:
		err = run(*name, *seed, *seconds, *trace == 1, *bin, *dir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, bin, dir, out string) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if bin == "" {
		return errors.New("-daemon is required")
	}
	pinned, err := readDigests(filepath.Join(dir, "digests.json"))
	if err != nil {
		return err
	}
	canary, err := sp.canary()
	if err != nil {
		return err
	}
	if want := pinned[sp.name].Canary; canary != want {
		return fmt.Errorf("%s: canary inputs digest %s, pinned %s: the generator changed; re-pin with run.sh --pin", sp.name, canary, want)
	}
	// The rendered traces are most of this process's heap and stay live
	// all run; a low GC target keeps its peak near their size.
	debug.SetGCPercent(25)
	workers := min(runtime.NumCPU(), 2)
	traces, dg, err := renderAll(sp, seed, workers)
	if err != nil {
		return err
	}
	for _, in := range traces {
		fmt.Fprintln(os.Stderr, in.describe())
	}
	fmt.Printf("inputs %s seed %d: prefix %s bodies %s canary %s\n", sp.name, seed, dg.Prefix, dg.Bodies, canary)
	if want, ok := pinned[sp.name].Seeds[strconv.FormatInt(seed, 10)]; ok && want != dg {
		return fmt.Errorf("%s seed %d: inputs digest prefix %s bodies %s, pinned %s %s; re-pin with run.sh --pin",
			sp.name, seed, dg.Prefix, dg.Bodies, want.Prefix, want.Bodies)
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	snaps := make([]string, len(traces))
	for i, in := range traces {
		snaps[i] = filepath.Join(scratch, fmt.Sprintf("prefix%d.snap", i))
		if err := writePrefixSnapshot(in, snaps[i]); err != nil {
			return err
		}
	}

	// Return the set-up's garbage to the OS now, so the runtime's
	// background scavenger does not compete with the daemon once rounds
	// start.
	debug.FreeOSMemory()

	// Round r replays trace r mod subTraces; every trace is replayed at
	// least once, so every trace's forecasts are scored.
	res := result{Metrics: make(map[string]metric)}
	var problems []string
	var rounds []*roundResult
	first := make([]*roundResult, len(traces))
	need := len(traces)
	if trace {
		need = 1
	}
	start := time.Now()
	for len(rounds) < need || (!trace && time.Since(start).Seconds() < seconds) {
		i := len(rounds) % len(traces)
		// Collect the generator's own garbage before the daemon's clock
		// starts, so it does not compete with the daemon for the cores.
		runtime.GC()
		r, err := runRound(bin, scratch, traces[i], snaps[i], len(rounds))
		if err != nil {
			return err
		}
		checkRound(traces[i], r)
		if first[i] == nil {
			first[i] = r
		} else if err := sameForecasts(first[i].forecasts, r.forecasts); err != nil {
			r.problemf("round %d answers differ from trace %d's first round: %v", len(rounds), i, err)
		}
		fmt.Fprintf(os.Stderr, "round %d trace %d: setup %.4fs ingest %.0f lines/s maintain %.4fs forecast p50 %.3fms rss p50 %.1fMiB\n",
			len(rounds), i, r.setup, float64(r.ingested)/sum(r.observe), r.maintain, median(r.forecast), median(r.rss))
		if sp.fpcache > 0 {
			fmt.Fprintf(os.Stderr, "  fingerprint cache: %d hits, %d misses for %d distinct statements\n",
				r.stats.CacheHits, r.stats.CacheMisses, traces[i].distinctReplaySQL)
		}
		problems = append(problems, r.problems...)
		res.Attempted += r.attempted
		res.Failed += r.failed
		rounds = append(rounds, r)
	}
	var logmse []float64
	for i, r := range first[:need] {
		acc := score(traces[i], r.forecasts)
		fmt.Fprintf(os.Stderr, "%s trace %d: log-MSE over %d targets: model %.4f, 24h mean %.4f, same hour yesterday %.4f, last interval %.4f\n",
			sp.name, i, acc.terms, acc.model, acc.mean24, acc.sameHour, acc.last)
		if !(acc.model < acc.mean24) {
			problems = append(problems, fmt.Sprintf("trace %d: forecast log-MSE %.4f not below the 24h-mean predictor's %.4f", i, acc.model, acc.mean24))
		}
		logmse = append(logmse, acc.model)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d rounds\n", sp.name, seed, len(rounds))

	var values map[string]float64
	if trace {
		// The traced replay runs the layers in this process: drop the
		// other traces and go back to Go's default GC target.
		clear(traces[1:])
		debug.SetGCPercent(100)
		runtime.GC()
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))
		layers, tp, err := tracedRun(traces[0], snaps[0], first[0].forecasts, spans)
		if err != nil {
			return err
		}
		problems = append(problems, tp...)
		layers["server.observe_p50_ms"] = median(rounds[0].observe) * 1e3
		s := rounds[0].stats.Admission
		layers["admission.shed"] = float64(s.Observe.Shed + s.Forecast.Shed)
		values = layers
	} else {
		values = endToEnd(rounds, logmse)
	}
	for k, v := range values {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd folds the rounds into the end-to-end metrics: totals and
// medians over the whole run.
func endToEnd(rounds []*roundResult, logmse []float64) map[string]float64 {
	var setup, maintain, forecast, rss []float64
	var lines int64
	var observe float64
	for _, r := range rounds {
		setup = append(setup, r.setup)
		maintain = append(maintain, r.maintain)
		forecast = append(forecast, r.forecast...)
		rss = append(rss, r.rss...)
		lines += r.ingested
		observe += sum(r.observe)
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"ingest_lines_per_s": float64(lines) / observe,
		"maintain_s":         median(maintain),
		"forecast_p50_ms":    median(forecast),
		"forecast_logmse":    sum(logmse) / float64(len(logmse)),
		"rss_p50_mb":         median(rss),
	}
}

// printSpread reads benchmark result lines (other lines are skipped) and
// prints each metric's median, quartiles and interquartile spread as a
// share of the median.
func printSpread(r io.Reader, w io.Writer) error {
	vals := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	runs, failed, attempted := 0, 0, 0
	for sc.Scan() {
		var res result
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		failed += res.Failed
		attempted += res.Attempted
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d of %d operations failed\n", runs, failed, attempted)
	for _, k := range names {
		v := vals[k]
		q1, _, q3 := quartiles(v)
		fmt.Fprintf(w, "%-42s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n", k, len(v), median(v), q1, q3, spread(v))
	}
	return nil
}

// pinned is the digests.json layout.
type pinned struct {
	Canary string            `json:"canary"`
	Seeds  map[string]digest `json:"seeds"`
}

// digest pins the full inputs of one seed.
type digest struct {
	Prefix string `json:"prefix"`
	Bodies string `json:"bodies"`
}

func readDigests(path string) (map[string]pinned, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]pinned
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// pinnedSeeds are the seeds whose full inputs digests.json records.
var pinnedSeeds = []int64{1, 2, 3}

func writeDigests(path string) error {
	out := make(map[string]pinned)
	for _, sp := range specs {
		c, err := sp.canary()
		if err != nil {
			return err
		}
		p := pinned{Canary: c}
		p.Seeds = make(map[string]digest)
		for _, s := range pinnedSeeds {
			traces, dg, err := renderAll(sp, s, min(runtime.NumCPU(), 2))
			if err != nil {
				return err
			}
			p.Seeds[strconv.FormatInt(s, 10)] = dg
			fmt.Fprintln(os.Stderr, traces[0].describe())
		}
		out[sp.name] = p
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
