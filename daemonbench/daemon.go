package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qb5000"
)

// daemonParallelism pins the daemon's worker pool and catalog stripes, so
// the traced in-process run can reproduce its answers bit for bit.
const daemonParallelism = 2

// daemonArgs are the flags every launch shares.
func daemonArgs(sp *spec, addr string) []string {
	p := strconv.Itoa(daemonParallelism)
	return []string{
		"-addr", addr,
		"-model", sp.model,
		"-horizon", horizon.String(),
		"-seed", "1",
		"-parallelism", p,
		"-shards", p,
		"-fpcache", strconv.Itoa(sp.fpcache),
		"-maintain-every", "0",
	}
}

// daemonConfig is the in-process equivalent of daemonArgs.
func daemonConfig(sp *spec) qb5000.Config {
	return qb5000.Config{
		Model:                sp.model,
		Horizons:             []time.Duration{horizon},
		Seed:                 1,
		Parallelism:          daemonParallelism,
		Shards:               daemonParallelism,
		FingerprintCacheSize: sp.fpcache,
	}
}

// writePrefixSnapshot ingests the prefix in process and saves the snapshot
// every daemon round restores.
func writePrefixSnapshot(in *inputs, path string) error {
	f := qb5000.New(daemonConfig(in.spec))
	obs := make([]qb5000.Observation, 0, observeChunk)
	for i, e := range in.prefix {
		obs = append(obs, qb5000.Observation{SQL: e.sql, At: e.at, Count: e.count})
		if len(obs) == observeChunk || i == len(in.prefix)-1 {
			if r := f.ObserveMany(obs); r.Rejected != 0 {
				return fmt.Errorf("prefix: %d queries rejected", r.Rejected)
			}
			obs = obs[:0]
		}
	}
	return f.SaveFile(path)
}

// proc is one running daemon.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	log  string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startDaemon(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for a clean exit; it kills the daemon if it
// does not exit within the grace period.
func (p *proc) stop() error {
	if p.exited() {
		return p.exitErr()
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // a racing exit is caught below
	select {
	case <-p.done:
		return p.exitErr()
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("daemon ignored SIGTERM for 60s")
	}
}

// kill ends the daemon at once and waits for it; used on error paths.
func (p *proc) kill() {
	if p == nil || p.exited() {
		return
	}
	_ = p.cmd.Process.Kill() // it may have exited meanwhile
	<-p.done
}

func (p *proc) exitErr() error {
	if st := p.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("daemon exited with %v; log tail:\n%s", st, p.logTail())
	}
	return nil
}

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort for a diagnostic
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// rssMiB reads VmRSS from /proc/<pid>/status.
func (p *proc) rssMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS line")
}

// client is the single closed-loop load generator: one keep-alive
// connection, one request at a time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. The duration covers
// sending the request through reading the last reply byte.
func (c *client) do(method, path string, payload []byte) (status int, reply []byte, d time.Duration, err error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	d = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, reply, d, err
}

// waitReady polls /stats until the daemon answers.
func (c *client) waitReady(p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("daemon exited during start-up: %v\n%s", p.exitErr(), p.logTail())
		}
		if st, _, _, err := c.do(http.MethodGet, "/stats", nil); err == nil && st == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("daemon not ready after 60s")
}

// clusterForecast mirrors one element of the /forecast reply.
type clusterForecast struct {
	ClusterID       int64
	Templates       []string
	PerTemplateRate float64
	TotalRate       float64
}

// statsReply holds the /stats fields the checks read.
type statsReply struct {
	TotalQueries   int64
	Templates      int
	ParseErrors    int64
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	Admission      struct {
		Observe  struct{ Shed int64 }
		Forecast struct{ Shed int64 }
	} `json:"admission"`
}

// roundResult is what one daemon round measured and checked.
type roundResult struct {
	setup        float64   // s
	observe      []float64 // s, per replayed body after the first
	ingested     int64     // trace lines of those bodies, all acknowledged
	maintain     float64   // s, summed over the scheduled calls
	forecast     []float64 // ms, per poll after the first
	rss          []float64 // MiB, after every response
	forecasts    [][]clusterForecast
	stats        statsReply
	attempted    int
	failed       int
	problems     []string
	observeAcked int64 // queries acknowledged by all bodies
}

func (r *roundResult) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runRound launches the daemon on the prefix snapshot, replays every body
// with its scheduled /maintain and a /forecast after each, checks the
// answers, and ends with the restart check.
func runRound(bin, dir string, in *inputs, snap string, round int) (*roundResult, error) {
	res := &roundResult{}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	savePath := filepath.Join(dir, fmt.Sprintf("round%d.snap", round))
	args := append(daemonArgs(in.spec, addr), "-load", snap, "-save", savePath)
	c := newClient(addr)
	defer c.close()

	t0 := time.Now()
	p, err := startDaemon(bin, args, filepath.Join(dir, fmt.Sprintf("round%d.log", round)))
	if err != nil {
		return nil, err
	}
	defer p.kill()
	if err := c.waitReady(p); err != nil {
		return nil, err
	}
	sample := func() error {
		mb, err := p.rssMiB()
		if err != nil {
			return err
		}
		res.rss = append(res.rss, mb)
		return nil
	}
	// call sends one counted operation; a non-2xx status counts as failed.
	var done time.Time // when the last reply was read, before the RSS sample
	call := func(method, path string, payload []byte) (int, []byte, time.Duration, error) {
		res.attempted++
		st, reply, d, err := c.do(method, path, payload)
		done = time.Now()
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if st/100 != 2 {
			res.failed++
		}
		return st, reply, d, sample()
	}

	for k, b := range in.bodies {
		st, reply, d, err := call(http.MethodPost, "/observe", b.data)
		if err != nil {
			return nil, err
		}
		var ack struct{ Ingested, Rejected int64 }
		if st != http.StatusOK {
			res.problemf("body %d: /observe status %d: %s", k, st, reply)
		} else if err := json.Unmarshal(reply, &ack); err != nil {
			res.problemf("body %d: /observe reply %q: %v", k, reply, err)
		}
		if ack.Ingested != b.queries || ack.Rejected != 0 {
			res.problemf("body %d: ingested %d rejected %d, sent %d queries", k, ack.Ingested, ack.Rejected, b.queries)
		}
		res.observeAcked += ack.Ingested
		if k > 0 {
			res.observe = append(res.observe, d.Seconds())
			if ack.Ingested == b.queries {
				res.ingested += int64(b.lines)
			}
		}
		if b.maintain {
			st, reply, d, err := call(http.MethodPost, "/maintain", nil)
			if err != nil {
				return nil, err
			}
			if st != http.StatusOK {
				res.problemf("body %d: /maintain status %d: %s", k, st, reply)
			}
			if k > 0 {
				res.maintain += d.Seconds()
			}
		}
		st, reply, d, err = call(http.MethodGet, "/forecast?horizon="+horizon.String(), nil)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			res.setup = done.Sub(t0).Seconds()
		} else {
			res.forecast = append(res.forecast, float64(d)/float64(time.Millisecond))
		}
		var fc []clusterForecast
		if st != http.StatusOK {
			res.problemf("body %d: /forecast status %d: %s", k, st, reply)
		} else if err := json.Unmarshal(reply, &fc); err != nil {
			res.problemf("body %d: /forecast reply: %v", k, err)
		}
		res.forecasts = append(res.forecasts, fc)
	}

	st, reply, _, err := call(http.MethodGet, "/stats", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/stats status %d: %s", st, reply)
	}
	if err := json.Unmarshal(reply, &res.stats); err != nil {
		return nil, fmt.Errorf("/stats reply: %w", err)
	}
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	if err := restartCheck(bin, dir, in, savePath, round, res); err != nil {
		return nil, err
	}
	return res, os.Remove(savePath)
}

// restartCheck relaunches the daemon from the snapshot it saved on SIGTERM,
// checks the catalog survived, and asks it to maintain and forecast. Both
// calls fail while the server takes its maintenance clock only from
// /observe traffic; they stay counted as attempted operations.
func restartCheck(bin, dir string, in *inputs, savePath string, round int, res *roundResult) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := append(daemonArgs(in.spec, addr), "-load", savePath)
	p, err := startDaemon(bin, args, filepath.Join(dir, fmt.Sprintf("round%d-restart.log", round)))
	if err != nil {
		return err
	}
	defer p.kill()
	c := newClient(addr)
	defer c.close()
	if err := c.waitReady(p); err != nil {
		return err
	}
	for _, op := range []struct{ method, path string }{
		{http.MethodGet, "/stats"},
		{http.MethodPost, "/maintain"},
		{http.MethodGet, "/forecast?horizon=" + horizon.String()},
	} {
		res.attempted++
		st, reply, _, err := c.do(op.method, op.path, nil)
		if err != nil {
			return fmt.Errorf("restart %s %s: %w", op.method, op.path, err)
		}
		if st/100 != 2 {
			res.failed++
		}
		if op.path != "/stats" {
			continue
		}
		var s statsReply
		if st != http.StatusOK {
			res.problemf("restart: /stats status %d", st)
		} else if err := json.Unmarshal(reply, &s); err != nil {
			res.problemf("restart: /stats reply: %v", err)
		}
		if s.TotalQueries != res.stats.TotalQueries || s.Templates != res.stats.Templates {
			res.problemf("restart: restored %d queries / %d templates, saved %d / %d",
				s.TotalQueries, s.Templates, res.stats.TotalQueries, res.stats.Templates)
		}
	}
	return p.stop()
}

// checkRound verifies one round's answers against the inputs.
func checkRound(in *inputs, r *roundResult) {
	if r.observeAcked != in.replayQueries {
		r.problemf("acknowledged %d queries, replayed %d", r.observeAcked, in.replayQueries)
	}
	s := r.stats
	if want := in.prefixQueries + in.replayQueries; s.TotalQueries != want {
		r.problemf("/stats TotalQueries %d, want prefix %d + replay %d", s.TotalQueries, in.prefixQueries, in.replayQueries)
	}
	if s.Templates != in.shapesEmitted {
		r.problemf("/stats Templates %d, want %d emitted shapes", s.Templates, in.shapesEmitted)
	}
	if s.ParseErrors != 0 {
		r.problemf("/stats ParseErrors %d", s.ParseErrors)
	}
	if s.Admission.Observe.Shed != 0 || s.Admission.Forecast.Shed != 0 {
		r.problemf("requests shed: observe %d forecast %d", s.Admission.Observe.Shed, s.Admission.Forecast.Shed)
	}
	if in.spec.fpcache > 0 {
		var lines int64
		for _, b := range in.bodies {
			lines += int64(b.lines)
		}
		if s.CacheHits+s.CacheMisses != lines {
			r.problemf("cache hits %d + misses %d != %d replayed lines", s.CacheHits, s.CacheMisses, lines)
		}
		if s.CacheMisses < int64(in.distinctReplaySQL) || s.CacheMisses > in.maxExpectedMisses {
			r.problemf("cache misses %d outside [%d distinct statements, %d]", s.CacheMisses, in.distinctReplaySQL, in.maxExpectedMisses)
		}
		if s.CacheEvictions != 0 {
			r.problemf("cache evicted %d entries", s.CacheEvictions)
		}
	}
	for k, fc := range r.forecasts {
		if err := checkForecast(in, fc); err != nil {
			r.problemf("poll %d: %v", k, err)
		}
	}
}

// checkForecast verifies the properties every answer must have: 1-5
// clusters, disjoint known member templates, finite non-negative rates.
func checkForecast(in *inputs, fc []clusterForecast) error {
	if len(fc) < 1 || len(fc) > 5 {
		return fmt.Errorf("%d clusters", len(fc))
	}
	seen := make(map[string]bool)
	for _, c := range fc {
		if len(c.Templates) == 0 {
			return fmt.Errorf("cluster %d has no templates", c.ClusterID)
		}
		for _, t := range c.Templates {
			if seen[t] {
				return fmt.Errorf("template %q in two clusters", t)
			}
			seen[t] = true
			if _, ok := in.templateShape[t]; !ok {
				return fmt.Errorf("unknown template %q", t)
			}
		}
		for _, v := range []float64{c.PerTemplateRate, c.TotalRate} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("cluster %d rate %v", c.ClusterID, v)
			}
		}
	}
	return nil
}

// sameForecasts reports the first difference between two answer series,
// comparing rates bit for bit.
func sameForecasts(a, b [][]clusterForecast) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d polls vs %d", len(a), len(b))
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return fmt.Errorf("poll %d: %d clusters vs %d", k, len(a[k]), len(b[k]))
		}
		for j := range a[k] {
			x, y := a[k][j], b[k][j]
			if x.ClusterID != y.ClusterID || strings.Join(x.Templates, "\n") != strings.Join(y.Templates, "\n") ||
				math.Float64bits(x.PerTemplateRate) != math.Float64bits(y.PerTemplateRate) ||
				math.Float64bits(x.TotalRate) != math.Float64bits(y.TotalRate) {
				return fmt.Errorf("poll %d cluster %d: %+v vs %+v", k, j, x, y)
			}
		}
	}
	return nil
}
