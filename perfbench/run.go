package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
)

// setupReps is how many times a run builds its inputs and warms up;
// setup_s is the median, so one slow set-up does not move it.
const setupReps = 9

// minPasses is the fewest untraced passes a run measures, whatever
// -seconds says, so every median has at least three samples.
const minPasses = 3

// reference.json holds, per workload, the output digest of the
// default seed at full size: any change to a cell's result bytes shows
// up as a failed operation.
//
//go:embed reference.json
var referenceJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every workload to a few small cells (tests).
	tiny bool
	// reference, when set, replaces the recorded digest the first pass
	// must reproduce.
	reference string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus what the tests compare between runs.
type report struct {
	result
	digest string
	counts levelCounts
}

// answer is one cell or query a pass produced.
type answer struct {
	// data is the result bytes as served (serve); batch answers carry
	// val, whose JSON encoding is what the store journals.
	data   []byte
	val    any
	// start and lat time the cell's job or the query; lat is scaled to
	// the reference host speed after an untraced pass.
	start  time.Time
	lat    time.Duration
	source string // "computed", "hot" or "store"
	kind   string // "sim" or "dense"
	failed bool
}

// levelCounts holds exact cache statistics keyed
// "<platform>/<mode>/<level>".
type levelCounts map[string]cache.Stats

func (lc levelCounts) add(machine, level string, st cache.Stats) {
	k := machine + "/" + level
	t := lc[k]
	t.Accesses += st.Accesses
	t.Hits += st.Hits
	t.Misses += st.Misses
	t.Evictions += st.Evictions
	t.Writebacks += st.Writebacks
	lc[k] = t
}

// passOut is what one pass measured.
type passOut struct {
	wall time.Duration
	// scaledWall is wall at the reference host speed (meter.scaled).
	scaledWall time.Duration
	alloc      uint64
	answers []answer
	// lines counts simulated line accesses (dense-grid: modelled line
	// transfers), the numerator of accesses_per_s.
	lines  uint64
	levels levelCounts
	// journalBytes is the size of the pass's store journal(s).
	journalBytes int64
	// slices and slow are how many meter slices the pass ran and their
	// median slowdown (untraced runs only).
	slices int
	slow   float64
	// rep holds what the traced run replays after the pass.
	rep *replay
}

// digest hashes every answer's result bytes in answer order.
func (p *passOut) digest() (string, error) {
	h := sha256.New()
	var n [8]byte
	for _, a := range p.answers {
		data := a.data
		if data == nil {
			var err error
			if data, err = json.Marshal(a.val); err != nil {
				return "", err
			}
		}
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// env is what a pass runs with: a scratch directory for its stores, the
// span recorder (nil when untraced) and the host-speed meter (nil when
// traced, and during set-up).
type env struct {
	dir string
	tr  *tracer
	m   *meter
	// beta scales a pass's wall time (workloadDef.beta).
	beta float64
	seq  int
}

// storeDir returns a fresh, unused store directory.
func (e *env) storeDir() string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("store-%d", e.seq))
}

// runner is one workload with its inputs built.
type runner interface {
	// pass runs every cell once, cold: fresh store, fresh workers.
	pass(ctx context.Context, e *env) (*passOut, error)
	// warmup runs a small fixed subset of the cells; it is part of set-up.
	warmup(ctx context.Context, e *env) error
	// workers is how many goroutines the pass keeps busy.
	workers() int
}

type workloadDef struct {
	name  string
	build func(seed uint64, tiny bool) (runner, error)
	// beta is how the workload's pass wall time moves with the meter's
	// slowdown s: as s^beta. It was fitted over five runs of each
	// workload (per-pass and per-run fits agree): the sim workloads and
	// serve-mixed, whose time is curve cells, slow down as the slices
	// do; a dense-grid pass spends most of its time in SHA-256 keys,
	// JSON and journal writes, which a busy host slows about half as
	// much in logarithmic terms. Latencies are a cell's own compute or
	// a query, which slow down as the slices do: they use beta 1.
	beta float64
}

var workloadDefs = []workloadDef{
	{"sparse-gather", newSparseGather, 1},
	{"curves-knl", newCurvesKNL, 1},
	{"dense-grid", newDenseGrid, 0.5},
	{"serve-mixed", newServeMixed, 1},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadDefs {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// checker turns the output checks into failed operations: every pass
// must reproduce the first pass's digest and cache counts, and the
// first pass must reproduce the recorded reference digest.
type checker struct {
	workload  string
	want      string
	attempted int
	failed    int
	digest    string
	counts    levelCounts
}

func (c *checker) check(p *passOut, what string) {
	c.attempted += len(p.answers)
	for _, a := range p.answers {
		if a.failed {
			c.failed++
		}
	}
	d, err := p.digest()
	if err != nil {
		c.fail("%s: encoding results: %v", what, err)
		return
	}
	if c.digest == "" {
		c.digest, c.counts = d, p.levels
		fmt.Fprintf(os.Stderr, "perfbench: %s output digest %s\n", c.workload, d)
		if c.want != "" && d != c.want {
			c.fail("%s: output digest %s differs from the reference %s", what, d, c.want)
		}
		return
	}
	if d != c.digest {
		c.fail("%s: output digest %s differs from the first pass's %s", what, d, c.digest)
	}
	if !reflect.DeepEqual(p.levels, c.counts) {
		c.fail("%s: cache counts differ from the first pass's", what)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", c.workload, fmt.Sprintf(format, args...))
}

func (o options) referenceDigest() (string, error) {
	if o.reference != "" {
		return o.reference, nil
	}
	if o.tiny || o.seed != defaultSeed {
		return "", nil
	}
	var refs map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return "", fmt.Errorf("reading reference.json: %w", err)
	}
	return refs[o.workload], nil
}

func run(ctx context.Context, o options) (*report, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	want, err := o.referenceDigest()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if o.trace {
		dir += "-trace"
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	scratch := filepath.Join(dir, "stores")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{dir: scratch, beta: wl.beta}

	// Each set-up is scaled by the probes around it.
	var setups []float64
	var r runner
	before := probe()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if r, err = wl.build(o.seed, o.tiny); err != nil {
			return nil, err
		}
		if err := r.warmup(ctx, e); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		d := time.Since(t0)
		after := probe()
		slow := slowdown(before, after)
		before = after
		setups = append(setups, d.Seconds()/slow)
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up %d: %.4f s, host at %.3f× the probe's reference time\n",
			o.workload, i+1, d.Seconds(), slow)
	}

	c := &checker{workload: o.workload, want: want}
	var metrics map[string]metric
	if !o.trace {
		e.m = newMeter(r.workers())
		// One pass before timing: the first pass of a run pays for what
		// later passes reuse (heap growth, fresh pages), and is slower.
		p, err := timedPass(ctx, r, e)
		if err != nil {
			return nil, err
		}
		c.check(p, "warm-up pass")
		var passes []*passOut
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		for len(passes) < minPasses || time.Now().Before(deadline) {
			p, err := timedPass(ctx, r, e)
			if err != nil {
				return nil, err
			}
			c.check(p, fmt.Sprintf("pass %d", len(passes)+1))
			passes = append(passes, p)
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3f s, %.3f s at the reference host speed (%d slices, median %.3f× sliceRef)\n",
				o.workload, len(passes), p.wall.Seconds(), p.scaledWall.Seconds(), p.slices, p.slow)
		}
		metrics = endToEnd(setups, passes)
	} else {
		metrics, err = tracedRun(ctx, o, r, e, dir, c)
		if err != nil {
			return nil, err
		}
	}
	return &report{
		result: result{
			Correct:   c.failed == 0,
			Attempted: c.attempted,
			Failed:    c.failed,
			Metrics:   metrics,
		},
		digest: c.digest,
		counts: c.counts,
	}, nil
}

// timedPass runs one pass from a collected heap and records its wall
// time and the bytes it allocated. With a meter, it scales the wall time
// and every latency to the reference host speed.
func timedPass(ctx context.Context, r runner, e *env) (*passOut, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.m.reset()
	t0 := time.Now()
	var p *passOut
	var err error
	e.tr.do(ctx, "bench.pass", func(ctx context.Context) { p, err = r.pass(ctx, e) })
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	e.m.freeze()
	p.wall = wall
	p.scaledWall = e.m.scaled(t0, wall, e.beta)
	p.slices, p.slow = e.m.slices()
	for i := range p.answers {
		a := &p.answers[i]
		a.lat = e.m.scaled(a.start, a.lat, 1)
	}
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p, nil
}

// endToEnd derives the untraced metrics: medians over the passes of
// each pass's timings at the reference host speed.
func endToEnd(setups []float64, passes []*passOut) map[string]metric {
	var walls, rates, allocs, colds []float64
	for _, p := range passes {
		wall := p.scaledWall.Seconds()
		walls = append(walls, wall)
		rates = append(rates, float64(p.lines)/wall)
		allocs = append(allocs, float64(p.alloc)/1e6)
		colds = append(colds, p.latencyQuantile(0.5, "computed", "")/1e3)
	}
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"wall_s":         {median(walls), "s"},
		"accesses_per_s": {median(rates), "1/s"},
		"alloc_mb":       {median(allocs), "MB"},
		"cold_p50_us":    {median(colds), "us"},
	}
}

// latencyQuantile returns the q-quantile, in ns, of the latencies of
// the answers matching source and kind ("" matches any); 0 when none
// match.
func (p *passOut) latencyQuantile(q float64, source, kind string) float64 {
	var ls []float64
	for _, a := range p.answers {
		if (source == "" || a.source == source) && (kind == "" || a.kind == kind) {
			ls = append(ls, float64(a.lat.Nanoseconds()))
		}
	}
	return quantile(ls, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
