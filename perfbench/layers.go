package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The traced run: one untraced reference pass, then traced passes for
// -seconds, then replays of single layers on the last pass's inputs.
// Spans come only from this package's calls into a layer; costs inside
// a call the benchmark cannot split (Reset, Evaluate and the gate
// inside core.Exact.EstimateCell, the generator inside Simulate) are
// measured by replaying that layer alone on the same inputs.

// evalRec is one EstimateCell call: what Evaluate consumed.
type evalRec struct {
	cfg     memsim.Config
	traffic memsim.Traffic
	props   memsim.KernelProps
}

// genRec is one generated workload, replayed on the floor simulator.
type genRec struct {
	plat *platform.Platform
	wl   trace.Workload
}

// replay is what a pass hands the per-layer replays.
type replay struct {
	evals   []evalRec
	newsims []memsim.Config
	gens    []genRec
	dense   []core.DenseJob
}

func (r *replay) merge(o *replay) {
	r.evals = append(r.evals, o.evals...)
	r.newsims = append(r.newsims, o.newsims...)
	r.gens = append(r.gens, o.gens...)
	r.dense = append(r.dense, o.dense...)
}

func tracedRun(ctx context.Context, o options, r runner, e *env, dir string, c *checker) (map[string]metric, error) {
	// The untraced reference pass fixes the digest and cache counts the
	// traced passes must reproduce, and is the tracing-overhead baseline.
	ref, err := timedPass(ctx, r, e)
	if err != nil {
		return nil, err
	}
	c.check(ref, "untraced reference pass")

	tr := newTracer(o.workload)
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	e.tr = tr
	var passes []*passOut
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) < 1 || time.Now().Before(deadline) {
		p, err := timedPass(ctx, r, e)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		c.check(p, fmt.Sprintf("traced pass %d", len(passes)+1))
		passes = append(passes, p)
	}
	e.tr = nil
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}

	m, err := layerMetrics(ctx, r, ref, passes, tr, e)
	if err != nil {
		return nil, err
	}
	var wall time.Duration
	for _, p := range passes {
		wall += p.wall
	}
	spans := func(f *os.File) error { return tr.writeSpans(f) }
	if err := writeFile(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	table := func(f *os.File) error {
		return writeTable(f, o.workload, tr.layers(), len(passes), wall, r.workers())
	}
	if err := writeFile(filepath.Join(dir, "layers.txt"), table); err != nil {
		return nil, err
	}
	return m, nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// levelNames are the cache levels the roster reports, nearest first.
var levelNames = []string{"l1", "l2", "l3", "edram", "mcdram_cache"}

// platformLevels are the levels each platform instantiates in some mode.
var platformLevels = []struct {
	plat   *platform.Platform
	levels []string
}{
	{platform.Broadwell(), []string{"l1", "l2", "l3", "edram"}},
	{platform.KNL(), []string{"l1", "l2", "mcdram_cache"}},
}

func layerMetrics(ctx context.Context, r runner, ref *passOut, passes []*passOut, tr *tracer, e *env) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	n := float64(len(passes))
	last := passes[len(passes)-1]
	rp := last.rep
	layers := map[string]layerTime{}
	for _, l := range tr.layers() {
		layers[l.Name] = l
	}
	perPassMS := func(name string) float64 { return float64(layers[name].Self) / n / 1e6 }
	meanUS := func(name string) float64 {
		l := layers[name]
		if l.Count == 0 {
			return 0
		}
		return float64(l.Total) / float64(l.Count) / 1e3
	}
	var wall, refWall time.Duration
	var walls []float64
	for _, p := range passes {
		wall += p.wall
		walls = append(walls, p.wall.Seconds())
	}
	refWall = ref.wall

	// Replays of the layers EstimateCell runs internally.
	ev := replayEvaluate(ctx, rp.evals, rp.dense)
	resetNS, newsimNS, err := replaySims(rp.evals, rp.newsims)
	if err != nil {
		return nil, err
	}
	genNS, genLines, err := replayGenerators(rp.gens)
	if err != nil {
		return nil, err
	}

	put("sparse.build_ms", "ms", perPassMS("sparse.build"))
	genPerLine := 0.0
	if genLines > 0 {
		genPerLine = genNS / float64(genLines)
	}
	put("trace.gen_ns_per_line", "ns", genPerLine)
	put("trace.dense_traffic_ns", "ns", ev.denseTrafficNS)
	put("memsim.evaluate_ns", "ns", ev.evaluateNS)
	put("core.gate_ns", "ns", ev.gateNS)
	put("memsim.newsim_ms", "ms", newsimNS/1e6)
	put("memsim.reset_ms", "ms", resetNS/1e6)

	// Simulation proper: the estimate spans less the replayed Reset,
	// Evaluate and gate costs of the same calls.
	simNS := 0.0
	if l := layers["core.estimate"]; l.Count > 0 {
		simNS = float64(l.Self)/n - resetNS - ev.simEvalTotalNS - ev.simGateTotalNS
	}
	put("memsim.simulate_ms", "ms", simNS/1e6)
	nsPerLine, hierPerLine := 0.0, 0.0
	if simNS > 0 && last.lines > 0 {
		nsPerLine = simNS / float64(last.lines)
		hierPerLine = nsPerLine - genPerLine
	}
	put("memsim.ns_per_line", "ns", nsPerLine)
	put("memsim.hierarchy_ns_per_line", "ns", hierPerLine)

	// Exact cache counts, and the per-level access costs replayed at
	// the hit ratio each level showed.
	var writebacks uint64
	for _, st := range last.levels {
		writebacks += st.Writebacks
	}
	put("cache.writebacks", "count", float64(writebacks))
	for _, lv := range levelNames {
		acc, h := levelUse(last.levels, rp.evals, "", lv)
		put("cache."+lv+".accesses", "count", float64(acc))
		put("cache."+lv+".hit_ratio", "ratio", h)
	}
	levelNS := 0.0
	for _, pl := range platformLevels {
		for _, lv := range pl.levels {
			acc, h := levelUse(last.levels, rp.evals, pl.plat.Name+"/", lv)
			ns := 0.0
			if acc > 0 {
				hit, miss, err := cacheAccessNS(pl.plat, lv)
				if err != nil {
					return nil, err
				}
				ns = h*hit + (1-h)*miss
				levelNS += ns * float64(acc)
			}
			put("cache."+pl.plat.Name+"."+lv+".ns_per_access", "ns", ns)
		}
	}
	unexplainedSim := 0.0
	if simNS > 0 {
		unexplainedSim = 1 - (levelNS+genPerLine*float64(last.lines))/simNS
	}
	put("memsim.unexplained_frac", "ratio", unexplainedSim)

	dispatchUS, err := replayDispatch(ctx)
	if err != nil {
		return nil, err
	}
	put("sweep.dispatch_us", "us", dispatchUS)
	busy := float64(layers["bench.cell"].Total + layers["bench.commit"].Total + layers["serve.hot"].Total +
		layers["serve.store"].Total + layers["serve.computed"].Total)
	span := float64(layers["sweep.map"].Total)
	if span == 0 {
		span = float64(layers["bench.pass"].Total)
	}
	put("sweep.utilization", "ratio", busy/(span*float64(r.workers())))

	keyUS := meanUS("harness.key")
	if layers["harness.key"].Count == 0 {
		keyUS = replayKeys(rp.dense)
	}
	put("harness.key_us", "us", keyUS)
	putUS, getNS, err := replayStore(e, last.answers)
	if err != nil {
		return nil, err
	}
	put("store.put_us", "us", putUS)
	put("store.getraw_ns", "ns", getNS)
	put("store.open_ms", "ms", meanUS("store.open")/1e3)
	put("store.journal_mb", "MB", float64(last.journalBytes)/1e6)

	// The serving layers: counts from every traced pass's answers,
	// latencies from the untraced reference pass.
	all := &passOut{}
	for _, p := range passes {
		all.answers = append(all.answers, p.answers...)
	}
	count := func(source string) float64 {
		c := 0
		for _, a := range all.answers {
			if a.source == source {
				c++
			}
		}
		return float64(c)
	}
	total := float64(len(all.answers))
	isServe := count("hot")+count("store") > 0
	hotRatio, storeRatio := 0.0, 0.0
	if isServe {
		hotRatio, storeRatio = count("hot")/total, count("store")/total
	}
	put("serve.hot_ratio", "ratio", hotRatio)
	put("serve.store_ratio", "ratio", storeRatio)
	computed := 0.0
	if isServe {
		computed = count("computed") / n
	}
	put("serve.computed", "count", computed)
	put("serve.rejected", "count", count("rejected")/n)
	put("serve.hot_p50_us", "us", ref.latencyQuantile(0.5, "hot", "")/1e3)
	put("serve.hot_p99_us", "us", ref.latencyQuantile(0.99, "hot", "")/1e3)
	put("serve.store_p50_us", "us", ref.latencyQuantile(0.5, "store", "")/1e3)
	coldDense, coldCurve50, coldCurve90 := 0.0, 0.0, 0.0
	if isServe {
		coldDense = ref.latencyQuantile(0.5, "computed", "dense") / 1e3
		coldCurve50 = ref.latencyQuantile(0.5, "computed", "sim") / 1e6
		coldCurve90 = ref.latencyQuantile(0.9, "computed", "sim") / 1e6
	}
	put("serve.cold_dense_p50_us", "us", coldDense)
	put("serve.cold_curve_p50_ms", "ms", coldCurve50)
	put("serve.cold_curve_p90_ms", "ms", coldCurve90)

	// Whole-benchmark accounting: how much of the workers' time the
	// layer spans cover, and what tracing cost.
	var self time.Duration
	for name, l := range layers {
		if !isContainer(name) {
			self += l.Self
		}
	}
	put("bench.unexplained_frac", "ratio", 1-float64(self)/(float64(wall)*float64(r.workers())))
	put("bench.trace_overhead_frac", "ratio", median(walls)/refWall.Seconds()-1)
	return m, nil
}

// levelUse returns how often a level was used by the machines whose
// key starts with prefix, and the share of uses that hit. The eDRAM
// victim cache is never Accessed: every L3 miss in edram mode probes it
// (Invalidate) and installs the L3 victim (Insert), so its uses are
// those L3 misses, and its hit ratio is the measured passes' eDRAM
// share of the lines served from below L3.
func levelUse(lc levelCounts, evals []evalRec, prefix, level string) (uint64, float64) {
	var acc, hits uint64
	for k, st := range lc {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		switch {
		case level == "edram" && strings.HasSuffix(k, "/edram/l3"):
			acc += st.Misses
		case level != "edram" && strings.HasSuffix(k, "/"+level):
			acc += st.Accesses
			hits += st.Hits
		}
	}
	if level != "edram" {
		return acc, ratio(hits, acc)
	}
	var fromEDRAM, fromDDR uint64
	for _, ev := range evals {
		if ev.cfg.Mode == memsim.ModeEDRAM && strings.HasPrefix(ev.cfg.Name+"/", prefix) {
			fromEDRAM += ev.traffic.Lines[memsim.SrcEDRAM]
			fromDDR += ev.traffic.Lines[memsim.SrcDDR]
		}
	}
	return acc, ratio(fromEDRAM, fromEDRAM+fromDDR)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timeIt returns the mean duration of fn over enough repetitions to
// run for at least minDur.
func timeIt(minDur time.Duration, fn func()) float64 {
	reps := 0
	start := time.Now()
	for reps == 0 || time.Since(start) < minDur {
		fn()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

type evalCosts struct {
	evaluateNS, gateNS, denseTrafficNS float64
	// per-pass totals over the simulated cells' EstimateCell calls
	simEvalTotalNS, simGateTotalNS float64
}

// replayEvaluate times memsim.Evaluate and the result gate on the
// pass's own inputs, and the analytic dense traffic model on its dense
// cells.
func replayEvaluate(ctx context.Context, evals []evalRec, dense []core.DenseJob) evalCosts {
	var c evalCosts
	var results []memsim.Result
	var evalNS, gateNS float64
	calls := 0
	if len(evals) > 0 {
		evalNS = timeIt(20*time.Millisecond, func() {
			results = results[:0]
			for i := range evals {
				r, _ := memsim.Evaluate(&evals[i].cfg, evals[i].traffic, evals[i].props)
				results = append(results, r)
			}
		})
		gateNS = timeIt(20*time.Millisecond, func() {
			for i := range results {
				_ = core.GateResult(ctx, nil, "replay", &results[i])
			}
		})
		c.simEvalTotalNS, c.simGateTotalNS = evalNS, gateNS
		calls = len(evals)
	}
	if len(dense) > 0 {
		type denseIn struct {
			model trace.DenseModel
			cfg   memsim.Config
			props memsim.KernelProps
		}
		var ins []denseIn
		for _, j := range dense {
			model := trace.DenseModel{Kind: j.Kind, N: j.N, NB: j.NB}
			props, err := j.Machine.KernelProps(j.Kind.String(), model.Flops())
			if err != nil {
				continue
			}
			props.Eff *= model.TileEff() * model.SizeEff(j.Machine.Plat.Cores)
			ins = append(ins, denseIn{model, trace.UnscaledConfig(j.Machine.Config()), props})
		}
		if len(ins) == 0 {
			return c
		}
		traffic := make([]memsim.Traffic, len(ins))
		c.denseTrafficNS = timeIt(20*time.Millisecond, func() {
			for i := range ins {
				traffic[i], _ = ins[i].model.Traffic(&ins[i].cfg)
			}
		}) / float64(len(ins))
		results = results[:0]
		evalNS += timeIt(20*time.Millisecond, func() {
			results = results[:0]
			for i := range ins {
				r, _ := memsim.Evaluate(&ins[i].cfg, traffic[i], ins[i].props)
				results = append(results, r)
			}
		})
		gateNS += timeIt(20*time.Millisecond, func() {
			for i := range results {
				_ = core.GateResult(ctx, nil, "replay", &results[i])
			}
		})
		calls += len(ins)
	}
	if calls > 0 {
		c.evaluateNS, c.gateNS = evalNS/float64(calls), gateNS/float64(calls)
	}
	return c
}

// replaySims returns the per-pass Reset cost of the pass's
// EstimateCell calls and the mean cost of one NewSim.
func replaySims(evals []evalRec, newsims []memsim.Config) (resetPerPass, newsimMean float64, err error) {
	type cost struct{ newsim, reset float64 }
	costs := map[memsim.Config]cost{}
	measure := func(cfg memsim.Config) (cost, error) {
		if c, ok := costs[cfg]; ok {
			return c, nil
		}
		var sim *memsim.Sim
		var err error
		c := cost{newsim: timeIt(10*time.Millisecond, func() { sim, err = memsim.NewSim(cfg) })}
		if err != nil {
			return cost{}, err
		}
		c.reset = timeIt(10*time.Millisecond, sim.Reset)
		costs[cfg] = c
		return c, nil
	}
	for _, ev := range evals {
		c, err := measure(ev.cfg)
		if err != nil {
			return 0, 0, err
		}
		resetPerPass += c.reset
	}
	for _, cfg := range newsims {
		c, err := measure(cfg)
		if err != nil {
			return 0, 0, err
		}
		newsimMean += c.newsim / float64(len(newsims))
	}
	return resetPerPass, newsimMean, nil
}

// floorConfig is the platform's DDR configuration cut down to one
// 64-byte L2 line: every access walks the generator and one lookup, so
// the time per line is the generator's cost.
func floorConfig(p *platform.Platform) (memsim.Config, error) {
	cfg, err := p.Config(memsim.ModeDDR)
	if err != nil {
		return memsim.Config{}, err
	}
	cfg.L1 = memsim.CacheCfg{}
	cfg.L3 = memsim.CacheCfg{}
	cfg.L2 = memsim.CacheCfg{Size: cache.LineSize, Ways: 1}
	return cfg, nil
}

// replayGenerators simulates every generated workload once on its
// platform's floor simulator and returns the total time and lines.
func replayGenerators(gens []genRec) (float64, uint64, error) {
	sims := map[string]*memsim.Sim{}
	var ns float64
	var lines uint64
	for _, g := range gens {
		sim := sims[g.plat.Name]
		if sim == nil {
			cfg, err := floorConfig(g.plat)
			if err != nil {
				return 0, 0, err
			}
			if sim, err = memsim.NewSim(cfg); err != nil {
				return 0, 0, err
			}
			sims[g.plat.Name] = sim
		}
		sim.Reset()
		start := time.Now()
		g.wl.Simulate(sim)
		ns += float64(time.Since(start).Nanoseconds())
		lines += sim.LevelStats()[0].Stats.Accesses
	}
	return ns, lines, nil
}

// cacheGeometry builds an empty cache with one level's geometry.
func cacheGeometry(p *platform.Platform, level string) (cache.Cache, int64, error) {
	mode := memsim.ModeDDR
	switch level {
	case "edram":
		mode = memsim.ModeEDRAM
	case "mcdram_cache":
		mode = memsim.ModeCache
	}
	cfg, err := p.Config(mode)
	if err != nil {
		return nil, 0, err
	}
	var cc memsim.CacheCfg
	switch level {
	case "l1":
		cc = cfg.L1
	case "l2":
		cc = cfg.L2
	case "l3":
		cc = cfg.L3
	case "edram":
		cc = cfg.EDRAM
	case "mcdram_cache":
		return cache.NewDirectMapped(level, cfg.MCDRAMBytes), cfg.MCDRAMBytes, nil
	}
	if cc.Size <= 0 {
		return nil, 0, fmt.Errorf("%s has no %s", p.Name, level)
	}
	return cache.NewSetAssoc(level, cc.Size, cc.Ways), cc.Size, nil
}

type cacheCost struct{ hit, miss float64 }

var cacheCosts = map[string]cacheCost{}

// cacheAccessNS microbenchmarks one level at its geometry: the cost of
// a use that hits (a resident line) and of one that misses (a line
// never seen, evicting a resident one). A use of the eDRAM victim
// cache is the probe-and-install pair an L3 miss makes.
func cacheAccessNS(p *platform.Platform, level string) (float64, float64, error) {
	key := p.Name + "/" + level
	if c, ok := cacheCosts[key]; ok {
		return c.hit, c.miss, nil
	}
	c, size, err := cacheGeometry(p, level)
	if err != nil {
		return 0, 0, err
	}
	lines := uint64(size / cache.LineSize)
	for l := uint64(0); l < lines; l++ {
		c.Access(l, false)
	}
	use := func(l uint64) { c.Access(l, false) }
	if level == "edram" {
		use = func(l uint64) {
			c.Invalidate(l)
			c.Insert(l, false)
		}
	}
	const n = 1 << 16
	half := lines / 2
	var next uint64
	hit := timeIt(10*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			use(next % half)
			next += 7
		}
	}) / n
	fresh := lines
	miss := timeIt(10*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			use(fresh)
			fresh++
		}
	}) / n
	cacheCosts[key] = cacheCost{hit, miss}
	return hit, miss, nil
}

// replayDispatch times sweep.Map over no-op jobs: the engine's cost per
// job with nothing to run.
func replayDispatch(ctx context.Context) (float64, error) {
	jobs := make([]int, 20000)
	eng := &sweep.Engine{Workers: batchWorkers}
	var err error
	ns := timeIt(20*time.Millisecond, func() {
		_, err = sweep.Map(ctx, eng, jobs, func(context.Context, *sweep.Worker, int) (int, error) { return 0, nil })
	})
	return ns / float64(len(jobs)) / 1e3, err
}

// replayKeys times the dense cell key and digest derivation.
func replayKeys(dense []core.DenseJob) float64 {
	if len(dense) == 0 {
		return 0
	}
	ns := timeIt(20*time.Millisecond, func() {
		for _, j := range dense {
			_ = harness.CellDigest(core.Exact, harness.DenseSweepID, "", harness.DenseKey(j))
		}
	})
	return ns / float64(len(dense)) / 1e3
}

// replayStore puts the pass's answers into a scratch store and reads
// them back raw: the journal append and the serving read path at this
// workload's payload sizes.
func replayStore(e *env, answers []answer) (putUS, getNS float64, err error) {
	dir := e.storeDir()
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	payloads := make([]json.RawMessage, 0, len(answers))
	for _, a := range answers {
		data := a.data
		if data == nil {
			if data, err = json.Marshal(a.val); err != nil {
				st.Close()
				return 0, 0, err
			}
		}
		if len(data) > 0 {
			payloads = append(payloads, data)
		}
	}
	if len(payloads) == 0 {
		return 0, 0, st.Close()
	}
	digests := make([]string, len(payloads))
	for i := range payloads {
		digests[i] = store.Digest("perfbench", "replay", fmt.Sprint(i))
	}
	start := time.Now()
	for i, p := range payloads {
		if err := st.Put(digests[i], "replay", fmt.Sprint(i), p); err != nil {
			st.Close()
			return 0, 0, err
		}
	}
	putUS = float64(time.Since(start).Nanoseconds()) / float64(len(payloads)) / 1e3
	getNS = timeIt(10*time.Millisecond, func() {
		for _, d := range digests {
			st.GetRaw(d)
		}
	}) / float64(len(digests))
	return putUS, getNS, st.Close()
}
