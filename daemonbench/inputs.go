package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"qb5000"
	"qb5000/internal/workload"
)

const day = 24 * time.Hour

// spec describes one workload: which generator, which simulated span the
// prefix snapshot and the replay cover, how the replay is cut into
// requests, and the daemon flags it runs under. Spans are offsets from the
// generator's trace start.
type spec struct {
	name  string
	model string
	// fpcache is the daemon's -fpcache value (0 = disabled).
	fpcache int
	// build is the repository's generator; see workload.
	build func(seed int64) *workload.Workload
	// step is the emission step: one trace line per shape per step.
	step time.Duration
	// The prefix covers [0, replayFrom); the replay [replayFrom, replayTo).
	replayFrom, replayTo time.Duration
	// body is the simulated span one /observe carries.
	body time.Duration
	// maintainEvery schedules a /maintain after each body whose window
	// ends on a multiple of it (counted from the replay start).
	maintainEvery time.Duration
	// pool > 0 expands every replayed arrival into its own line whose SQL
	// is drawn from a fixed per-shape pool of this many statements.
	pool int
}

// horizon and interval are the daemon's prediction horizon and the
// controller's default prediction interval.
const (
	horizon  = time.Hour
	interval = time.Hour
)

var specs = []*spec{
	{
		// Fresh literals on every line, so parsing and templatization run
		// on all of them, and minute histories grow by 1440 bins a day.
		name: "bustracker-days", model: "LR", build: workload.BusTracker,
		step: time.Minute, replayFrom: 2 * day, replayTo: 10 * day,
		body: time.Hour, maintainEvery: day,
	},
	{
		// The unaggregated log a real shipper sends: after each
		// statement's first sighting every line is a fingerprint-cache
		// hit, so trace decode, the HTTP body path and the stripe fold do
		// nearly all the work.
		name: "hot-ingest", model: "LR", fpcache: 4096, build: workload.BusTracker,
		step: time.Minute, replayFrom: 2 * day, replayTo: 4 * day,
		body: time.Hour, maintainEvery: 12 * time.Hour, pool: 16,
	},
	{
		// Polls interleave with writes on one catalog; new templates
		// arrive with the forum launch (day 20) and minute-history
		// compaction begins past day 31. The replay starts a day before
		// the launch, so the launch falls between two scheduled refreshes.
		name: "mooc-poll", model: "LR", build: workload.MOOC,
		step: 5 * time.Minute, replayFrom: 19 * day, replayTo: 32 * day,
		body: 30 * time.Minute, maintainEvery: day,
	},
}

// workload returns the generator the inputs are rendered from: the
// workload's own, with its day-level volume drift turned off. The drift is
// a slow random walk of the whole trace's volume, so with it the replayed
// volume, and with it every per-line cost that is amortized over a minute
// bin, differs by tens of percent from seed to seed; it also costs most of
// the generator's time.
func (sp *spec) workload(seed int64) *workload.Workload {
	w := sp.build(seed)
	w.Drift = nil
	return w
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// entry is one trace line.
type entry struct {
	at    time.Time
	count int64
	sql   string
	shape int
}

// body is one /observe request.
type body struct {
	data    []byte
	lines   int
	queries int64
	// lastAt is the newest timestamp in the body (zero when empty).
	lastAt time.Time
	// maintain schedules a /maintain after this body.
	maintain bool
}

// inputs is everything one invocation replays, rendered before any clock
// starts.
type inputs struct {
	spec   *spec
	seed   int64
	start  time.Time // trace start: the prefix begins here
	prefix []entry
	replay []entry
	bodies []body
	shapes []string
	// hourly[s][h] counts shape s's arrivals in hour h after start.
	hourly [][]float64
	// templateShape maps a template's canonical SQL to its shape.
	templateShape map[string]int

	prefixQueries, replayQueries int64
	shapesEmitted                int
	distinctReplaySQL            int
	// maxExpectedMisses bounds the daemon's fingerprint-cache misses: a
	// statement is parsed again only while no earlier ObserveMany chunk
	// has inserted it (see observeChunk).
	maxExpectedMisses int64

	prefixDigest, bodiesDigest string
	generate                   time.Duration
}

// observeChunk is the number of trace entries the daemon folds per
// ObserveMany call within one request body.
const observeChunk = 1024

// chunkSeed derives the generator seed of one simulated day, so days can
// be rendered independently and in parallel.
func chunkSeed(seed int64, dayIndex int) int64 {
	return seed*1_000_003 + int64(dayIndex)
}

// generate renders [from, to) (offsets from the trace start) one simulated
// day at a time on up to workers goroutines. Each day uses its own
// generator seed; the workload's slow day-level drift still comes from
// seed. With pool > 0 every arrival becomes its own line with SQL drawn
// from pools.
func (sp *spec) generate(seed int64, from, to time.Duration, pools [][]string, workers int) ([]entry, error) {
	type part struct {
		out []entry
		err error
	}
	days := int((to - from + day - 1) / day)
	parts := make([]part, days)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lo := from + time.Duration(i)*day
				hi := lo + day
				if hi > to {
					hi = to
				}
				parts[i].out, parts[i].err = sp.renderDay(seed, lo, hi, pools)
			}
		}()
	}
	for i := 0; i < days; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []entry
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, p.out...)
	}
	return out, nil
}

// renderDay renders [lo, hi), which lies within one simulated day.
func (sp *spec) renderDay(seed int64, lo, hi time.Duration, pools [][]string) ([]entry, error) {
	w := sp.workload(seed)
	dayIndex := int(lo / day)
	w.Seed = chunkSeed(seed, dayIndex)
	index := make(map[string]int, len(w.Shapes))
	for i, s := range w.Shapes {
		index[s.Name] = i
	}
	pick := rand.New(rand.NewSource(w.Seed ^ 0x5eed))
	var out []entry
	err := w.Replay(w.Start.Add(lo), w.Start.Add(hi), sp.step, func(ev workload.Event) error {
		s := index[ev.Shape]
		if pools == nil {
			out = append(out, entry{at: ev.At, count: ev.Count, sql: ev.SQL, shape: s})
			return nil
		}
		for k := int64(0); k < ev.Count; k++ {
			out = append(out, entry{at: ev.At, count: 1, sql: pools[s][pick.Intn(len(pools[s]))], shape: s})
		}
		return nil
	})
	return out, err
}

// generatorDay renders one simulated day of the replay span with the
// repository's unmodified generator, drift included, as tests and
// experiments call it.
func (sp *spec) generatorDay(seed int64) error {
	w := sp.build(seed)
	from := w.Start.Add(sp.replayFrom)
	return w.Replay(from, from.Add(day), sp.step, func(workload.Event) error { return nil })
}

// makePools renders each shape's fixed literal pool.
func (sp *spec) makePools(seed int64) [][]string {
	w := sp.workload(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x9001))
	at := w.Start.Add(sp.replayFrom)
	pools := make([][]string, len(w.Shapes))
	for i, s := range w.Shapes {
		for k := 0; k < sp.pool; k++ {
			pools[i] = append(pools[i], s.Gen(rng, at))
		}
	}
	return pools
}

// appendLine renders one trace line. Aggregated lines carry their count;
// expanded ones (count 1) use the two-field form a per-query shipper
// sends.
func appendLine(b []byte, e entry) []byte {
	b = e.at.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, '\t')
	if e.count != 1 {
		b = strconv.AppendInt(b, e.count, 10)
		b = append(b, '\t')
	}
	b = append(b, e.sql...)
	return append(b, '\n')
}

// subTraces is how many independent traces one run replays, one per round
// in turn. Forecast error depends on the trace drawn, so scoring several
// keeps the seed-to-seed spread of forecast_logmse down.
const subTraces = 4

// renderAll renders every trace of one seed, each from its own generator
// seed, and digests them together.
func renderAll(sp *spec, seed int64, workers int) ([]*inputs, digest, error) {
	var ins []*inputs
	hp, hb := sha256.New(), sha256.New()
	for i := 0; i < subTraces; i++ {
		in, err := render(sp, seed*1000+int64(i), workers)
		if err != nil {
			return nil, digest{}, err
		}
		ins = append(ins, in)
		hp.Write([]byte(in.prefixDigest))
		hb.Write([]byte(in.bodiesDigest))
	}
	return ins, digest{hex.EncodeToString(hp.Sum(nil))[:32], hex.EncodeToString(hb.Sum(nil))[:32]}, nil
}

// render builds the full inputs of one trace.
func render(sp *spec, seed int64, workers int) (*inputs, error) {
	t0 := time.Now()
	w := sp.workload(seed)
	in := &inputs{spec: sp, seed: seed, start: w.Start}
	for _, s := range w.Shapes {
		in.shapes = append(in.shapes, s.Name)
	}
	var err error
	if in.prefix, err = sp.generate(seed, 0, sp.replayFrom, nil, workers); err != nil {
		return nil, err
	}
	var pools [][]string
	if sp.pool > 0 {
		pools = sp.makePools(seed)
	}
	if in.replay, err = sp.generate(seed, sp.replayFrom, sp.replayTo, pools, workers); err != nil {
		return nil, err
	}
	in.generate = time.Since(t0)
	in.cutBodies()
	in.count()
	if err := in.mapTemplates(); err != nil {
		return nil, err
	}
	in.prefixDigest, in.bodiesDigest = in.digests()
	return in, nil
}

// cutBodies splits the replay into one request per body window.
func (in *inputs) cutBodies() {
	sp := in.spec
	n := int((sp.replayTo - sp.replayFrom) / sp.body)
	in.bodies = make([]body, n)
	i := 0
	for k := range in.bodies {
		b := &in.bodies[k]
		end := in.start.Add(sp.replayFrom + time.Duration(k+1)*sp.body)
		for ; i < len(in.replay) && in.replay[i].at.Before(end); i++ {
			e := in.replay[i]
			b.data = appendLine(b.data, e)
			b.lines++
			b.queries += e.count
			if e.at.After(b.lastAt) {
				b.lastAt = e.at
			}
		}
		b.maintain = k == 0 || (time.Duration(k+1)*sp.body)%sp.maintainEvery == 0
	}
}

// count tallies the per-shape hourly arrivals and the totals the daemon's
// answers are checked against.
func (in *inputs) count() {
	hours := int(in.spec.replayTo / time.Hour)
	in.hourly = make([][]float64, len(in.shapes))
	for s := range in.hourly {
		in.hourly[s] = make([]float64, hours)
	}
	seen := make([]bool, len(in.shapes))
	add := func(e entry) {
		in.hourly[e.shape][int(e.at.Sub(in.start)/time.Hour)] += float64(e.count)
		seen[e.shape] = true
	}
	for _, e := range in.prefix {
		add(e)
		in.prefixQueries += e.count
	}
	for _, e := range in.replay {
		add(e)
		in.replayQueries += e.count
	}
	for _, ok := range seen {
		if ok {
			in.shapesEmitted++
		}
	}
	// Replay the daemon's per-chunk cache behaviour: within one
	// ObserveMany call every line is looked up before any is inserted.
	distinct := make(map[string]bool)
	for _, b := range in.bodies {
		lines := splitLines(b.data)
		for lo := 0; lo < len(lines); lo += observeChunk {
			hi := lo + observeChunk
			if hi > len(lines) {
				hi = len(lines)
			}
			for _, l := range lines[lo:hi] {
				if !distinct[l] {
					in.maxExpectedMisses++
				}
			}
			for _, l := range lines[lo:hi] {
				distinct[l] = true
			}
		}
	}
	in.distinctReplaySQL = len(distinct)
}

// splitLines returns each line's SQL field.
func splitLines(data []byte) []string {
	var out []string
	start := 0
	for i, c := range data {
		if c != '\n' {
			continue
		}
		line := string(data[start:i])
		start = i + 1
		// The SQL is everything after the last tab.
		for j := len(line) - 1; j >= 0; j-- {
			if line[j] == '\t' {
				line = line[j+1:]
				break
			}
		}
		out = append(out, line)
	}
	return out
}

// mapTemplates templatizes one statement of every emitted shape so
// forecast answers, which name templates, can be scored per shape.
func (in *inputs) mapTemplates() error {
	in.templateShape = make(map[string]int)
	done := make([]bool, len(in.shapes))
	for _, list := range [][]entry{in.prefix, in.replay} {
		for _, e := range list {
			if done[e.shape] {
				continue
			}
			done[e.shape] = true
			tmpl, _, err := qb5000.Templatize(e.sql)
			if err != nil {
				return fmt.Errorf("templatize %s: %w", in.shapes[e.shape], err)
			}
			if prev, dup := in.templateShape[tmpl]; dup {
				return fmt.Errorf("shapes %s and %s share template %q", in.shapes[prev], in.shapes[e.shape], tmpl)
			}
			in.templateShape[tmpl] = e.shape
		}
	}
	return nil
}

// digests hashes the prefix trace and the request bodies.
func (in *inputs) digests() (prefix, bodies string) {
	h := sha256.New()
	var buf []byte
	for _, e := range in.prefix {
		buf = appendLine(buf[:0], e)
		h.Write(buf)
	}
	prefix = hex.EncodeToString(h.Sum(nil))[:32]
	h.Reset()
	var n [8]byte
	for _, b := range in.bodies {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b.data)))
		h.Write(n[:])
		h.Write(b.data)
	}
	return prefix, hex.EncodeToString(h.Sum(nil))[:32]
}

// pinSeed and canarySpan fix the canary every run re-renders and checks:
// the first hours of the prefix and of the replay at one fixed seed.
const (
	pinSeed    = 1
	canarySpan = 3 * time.Hour
)

// canary renders the canary inputs and returns their digest.
func (sp *spec) canary() (string, error) {
	h := sha256.New()
	var pools [][]string
	if sp.pool > 0 {
		pools = sp.makePools(pinSeed)
	}
	var buf []byte
	for _, part := range []struct {
		from  time.Duration
		pools [][]string
	}{{0, nil}, {sp.replayFrom, pools}} {
		es, err := sp.renderDay(pinSeed, part.from, part.from+canarySpan, part.pools)
		if err != nil {
			return "", err
		}
		for _, e := range es {
			buf = appendLine(buf[:0], e)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// describe summarizes the make-up of the inputs for the README.
func (in *inputs) describe() string {
	maint, polls := 0, len(in.bodies)
	for _, b := range in.bodies {
		if b.maintain {
			maint++
		}
	}
	var lines int
	for _, b := range in.bodies {
		lines += b.lines
	}
	prefixDistinct := make(map[string]bool)
	for _, e := range in.prefix {
		prefixDistinct[e.sql] = true
	}
	sp := in.spec
	return fmt.Sprintf("%s seed %d: prefix %v (%d lines, %d queries, %d distinct statements); "+
		"replay %v at %v steps: %d lines, %d queries, %d distinct statements, %d templates, "+
		"%d requests of %v (%.0f lines each), %d /maintain (1 in set-up), %d /forecast; generate %.2fs",
		sp.name, in.seed, sp.replayFrom, len(in.prefix), in.prefixQueries, len(prefixDistinct),
		sp.replayTo-sp.replayFrom, sp.step, lines, in.replayQueries, in.distinctReplaySQL, in.shapesEmitted,
		len(in.bodies), sp.body, float64(lines)/float64(len(in.bodies)), maint, polls, in.generate.Seconds())
}
