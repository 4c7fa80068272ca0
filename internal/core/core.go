// Package core is the evaluation engine of the reproduction — the
// paper's methodology as a reusable library. A Machine pairs a
// platform (Table 3) with a memory mode (Table 1); Run drives a kernel
// workload through the hierarchy simulator and the Stepping-model
// timing evaluation; RunDense evaluates the analytic tiled-traffic
// model for the paper-scale GEMM/Cholesky sweeps. Exact, the one
// Estimator, wraps both behind the result gate for the sweep cells the
// harness, the serve daemon and perfbench evaluate.
package core

import (
	"fmt"
	"math"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ModelVersion names the current generation of the simulator + timing
// model. It is the first component of every persistent-store digest,
// so bumping it (required whenever a change to memsim, trace, or the
// tuning tables alters any result) invalidates all previously cached
// results at once instead of serving numbers the current model would
// not reproduce.
const ModelVersion = "opm-model/1"

// Tuning carries the per-kernel model parameters of Table 2 and the
// timing model: thread policy (SMT column), memory-level parallelism,
// and per-platform compute efficiency (how close the benchmarked
// implementation sits to theoretical peak when compute bound).
type Tuning struct {
	SMT bool    // use SMT thread counts (8 on Broadwell, 256 on KNL)
	MLP float64 // per-thread outstanding misses at full ramp
	Eff map[string]float64
}

// DefaultTuning returns the kernel tuning table. Efficiencies are
// calibrated against the paper's best observed GFlop/s (Tables 4, 5):
// e.g. GEMM 0.90·236.8 ≈ 206 on Broadwell, 0.50·3072 ≈ 1540 on KNL.
func DefaultTuning() map[string]Tuning {
	return map[string]Tuning{
		"GEMM":     {SMT: false, MLP: 8, Eff: map[string]float64{"broadwell": 0.90, "knl": 0.52, "skylake": 0.90}},
		"Cholesky": {SMT: false, MLP: 8, Eff: map[string]float64{"broadwell": 0.84, "knl": 0.42, "skylake": 0.84}},
		// Sparse kernels are gather/scatter-rate limited, not FMA
		// limited: their "compute" ceilings encode the measured
		// in-cache bests (Tables 4/5: SpMV 9.6/46.5, SpTRANS
		// 21.8/5.2, SpTRSV ~70/38.8 GFlop/s by the paper's operation
		// accounting).
		"SpMV":    {SMT: true, MLP: 4, Eff: map[string]float64{"broadwell": 0.042, "knl": 0.016, "skylake": 0.045}},
		"SpTRANS": {SMT: false, MLP: 4, Eff: map[string]float64{"broadwell": 0.092, "knl": 0.0017, "skylake": 0.095}},
		"SpTRSV":  {SMT: true, MLP: 0.6, Eff: map[string]float64{"broadwell": 0.30, "knl": 0.0126, "skylake": 0.30}},
		"FFT":     {SMT: true, MLP: 4, Eff: map[string]float64{"broadwell": 0.20, "knl": 0.05, "skylake": 0.21}},
		"Stencil": {SMT: true, MLP: 6, Eff: map[string]float64{"broadwell": 0.27, "knl": 0.27, "skylake": 0.28}},
		"Stream":  {SMT: true, MLP: 8, Eff: map[string]float64{"broadwell": 0.80, "knl": 0.80, "skylake": 0.80}},
	}
}

// Machine is one platform in one memory mode — the unit the paper's
// per-figure sweeps iterate over.
type Machine struct {
	Plat    *platform.Platform
	Mode    memsim.Mode
	cfg     memsim.Config
	cfgHash string // obs.Hash(cfg), fixed with cfg at construction
	tuning  map[string]Tuning
}

// NewMachine builds a machine, validating that the platform supports
// the mode (Table 1).
func NewMachine(p *platform.Platform, mode memsim.Mode) (*Machine, error) {
	cfg, err := p.Config(mode)
	if err != nil {
		return nil, err
	}
	return &Machine{Plat: p, Mode: mode, cfg: cfg, cfgHash: obs.Hash(cfg), tuning: DefaultTuning()}, nil
}

// Config returns the machine's simulator configuration.
func (m *Machine) Config() memsim.Config { return m.cfg }

// ConfigHash returns obs.Hash(m.Config()), computed once when the
// machine was built: the config never changes afterwards, and store
// keys fingerprint it on every cell.
func (m *Machine) ConfigHash() string { return m.cfgHash }

// Label returns "platform/mode" for reports.
func (m *Machine) Label() string { return m.Plat.Name + "/" + m.Mode.String() }

// KernelProps builds the timing-model properties for a named kernel
// and operation count from the machine's tuning table — the hook
// perfbench's Evaluate replay shares with the exact path.
func (m *Machine) KernelProps(name string, flops float64) (memsim.KernelProps, error) {
	return m.props(name, flops)
}

// WorkloadProps is KernelProps for one workload, including the
// dependency-parallelism thread clamp (SpTRSV's level schedule).
func (m *Machine) WorkloadProps(w trace.Workload) (memsim.KernelProps, error) {
	props, err := m.props(w.Name(), w.Flops())
	if err != nil {
		return memsim.KernelProps{}, err
	}
	if pl, ok := w.(parallelismLimited); ok {
		avg := pl.AvgParallelism()
		if avg < 1 {
			avg = 1
		}
		if t := int(math.Ceil(avg)); t < props.Threads {
			props.Threads = t
		}
	}
	return props, nil
}

// props builds the timing-model kernel properties for a workload.
func (m *Machine) props(name string, flops float64) (memsim.KernelProps, error) {
	t, ok := m.tuning[name]
	if !ok {
		return memsim.KernelProps{}, fmt.Errorf("core: no tuning for kernel %q", name)
	}
	eff, ok := t.Eff[m.Plat.Name]
	if !ok {
		return memsim.KernelProps{}, fmt.Errorf("core: kernel %q has no efficiency for platform %q", name, m.Plat.Name)
	}
	return memsim.KernelProps{
		Name:    name,
		Flops:   flops,
		Threads: m.Plat.Threads(t.SMT),
		MLP:     t.MLP,
		Eff:     eff,
	}, nil
}

// parallelismLimited is implemented by workloads whose usable thread
// count is throttled by the input (SpTRSV's dependency levels).
type parallelismLimited interface {
	AvgParallelism() float64
}

// Run simulates one workload on the machine and evaluates it.
func (m *Machine) Run(w trace.Workload) (memsim.Result, error) {
	sim, err := memsim.NewSim(m.cfg)
	if err != nil {
		return memsim.Result{}, err
	}
	return m.RunOn(sim, w)
}

// RunOn is Run on a caller-provided simulator, which is Reset first so
// a pooled simulator reproduces a fresh one's behaviour exactly. The
// simulator must have been built from this machine's configuration.
func (m *Machine) RunOn(sim *memsim.Sim, w trace.Workload) (memsim.Result, error) {
	if sim == nil {
		return memsim.Result{}, fmt.Errorf("core: %s: nil simulator", m.Label())
	}
	if sim.Config() != m.cfg {
		return memsim.Result{}, fmt.Errorf("core: simulator config %s/%s does not match machine %s",
			sim.Config().Name, sim.Config().Mode, m.Label())
	}
	sim.Reset()
	w.Simulate(sim)
	return m.evaluate(sim, w)
}

// evaluate applies the timing model to the traffic sim counted for w.
func (m *Machine) evaluate(sim *memsim.Sim, w trace.Workload) (memsim.Result, error) {
	props, err := m.WorkloadProps(w)
	if err != nil {
		return memsim.Result{}, err
	}
	return memsim.Evaluate(&m.cfg, sim.Traffic(), props)
}

// PooledSim returns the sweep worker's reusable simulator for this
// machine's configuration, building it on first use. Paired with the
// Reset of RunOn or memsim.Fanout, one simulator per (worker,
// configuration) serves an entire sweep without re-allocating cache
// arrays per cell; after Exact.EstimateMachines it holds that machine's
// counts for the cell.
func (m *Machine) PooledSim(w *sweep.Worker) (*memsim.Sim, error) {
	v, err := w.Get(m.cfg, func() (any, error) { return memsim.NewSim(m.cfg) })
	if err != nil {
		return nil, err
	}
	return v.(*memsim.Sim), nil
}

// RunDense evaluates the analytic dense model (GEMM or Cholesky heat
// maps) for order n and tile size nb at paper scale.
func (m *Machine) RunDense(kind trace.DenseKind, n, nb int) (memsim.Result, error) {
	model := trace.DenseModel{Kind: kind, N: n, NB: nb}
	cfg := trace.UnscaledConfig(m.cfg)
	tr, err := model.Traffic(&cfg)
	if err != nil {
		return memsim.Result{}, err
	}
	props, err := m.props(kind.String(), model.Flops())
	if err != nil {
		return memsim.Result{}, err
	}
	props.Eff *= model.TileEff() * model.SizeEff(m.Plat.Cores)
	return memsim.Evaluate(&cfg, tr, props)
}

// Machines builds one Machine per supported mode of a platform, in
// Table 1 order.
func Machines(p *platform.Platform) ([]*Machine, error) {
	out := make([]*Machine, 0, len(p.Modes))
	for _, mode := range p.Modes {
		m, err := NewMachine(p, mode)
		if err != nil {
			return nil, fmt.Errorf("core: machines for %s: %w", p.Name, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// DenseJob is one analytic dense-model cell of a sweep.
type DenseJob struct {
	Machine *Machine
	Kind    trace.DenseKind
	N, NB   int
}
