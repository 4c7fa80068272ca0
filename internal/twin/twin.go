// Package twin is the calibrated analytic stepping twin: an Estimator
// that predicts sweep cells from reuse-distance profiles of the trace
// generators' access patterns instead of replaying them through the
// per-access simulator. It generalizes internal/stepping's bounded
// throughput model per kernel family, feeds the same memsim timing
// evaluation as the exact path, and is orders of magnitude faster per
// cell. Its error against the exact simulator is measured per family by
// internal/twin/calib; the Escalating policy serves from the twin only
// where that calibrated error is within bound.
package twin

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ModelVersion names the twin's model generation. It takes the place
// of core.ModelVersion in store digests of twin-computed cells, so twin
// and exact results can never alias in the content-addressed journal.
// Any change to the profile laws or the capture chain must bump it.
const ModelVersion = "twin-model/1"

// Estimator is the analytic twin. The zero value is ready to use.
type Estimator struct{}

var _ core.Estimator = Estimator{}

// Mode returns "twin".
func (Estimator) Mode() string { return "twin" }

// Version returns the twin's model generation.
func (Estimator) Version() string { return ModelVersion }

// EstimateCell predicts one trace cell analytically: synthesize the
// traffic the simulator would have counted, evaluate it with the
// machine's timing properties, and pass the result through the same
// validation gate as exact cells. The sweep worker is unused — the
// twin needs no pooled simulator.
func (Estimator) EstimateCell(ctx context.Context, eng *sweep.Engine, _ *sweep.Worker, m *core.Machine, wl trace.Workload, key string) (memsim.Result, error) {
	obs.TraceEvent(ctx, obs.EvEstimator, "twin")
	cfg := m.Config()
	tr, err := Predict(&cfg, wl)
	if err != nil {
		return memsim.Result{}, fmt.Errorf("twin: %s: %w", key, err)
	}
	props, err := m.WorkloadProps(wl)
	if err != nil {
		return memsim.Result{}, err
	}
	r, err := memsim.Evaluate(&cfg, tr, props)
	if err != nil {
		return memsim.Result{}, fmt.Errorf("twin: %s: %w", key, err)
	}
	if gerr := core.GateResult(ctx, injector(eng), key, &r); gerr != nil {
		return memsim.Result{}, gerr
	}
	registry(eng).Counter("twin/serves").Inc()
	return r, nil
}

// EstimateMachines predicts the cell on each machine in turn.
func (e Estimator) EstimateMachines(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, ms []*core.Machine, wl trace.Workload, key func(*core.Machine) string) ([]memsim.Result, error) {
	out := make([]memsim.Result, 0, len(ms))
	for _, m := range ms {
		r, err := e.EstimateCell(ctx, eng, w, m, wl, key(m))
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// EstimateDense predicts one paper-scale dense cell from the twin's
// tile-reuse law over the unscaled configuration, with the same
// efficiency derating (tiling + strong-scaling) as the exact path.
func (Estimator) EstimateDense(ctx context.Context, eng *sweep.Engine, j core.DenseJob, key string) (memsim.Result, error) {
	obs.TraceEvent(ctx, obs.EvEstimator, "twin")
	cfg := trace.UnscaledConfig(j.Machine.Config())
	tr, err := PredictDense(&cfg, j.Kind, j.N, j.NB)
	if err != nil {
		return memsim.Result{}, fmt.Errorf("twin: %s: %w", key, err)
	}
	model := trace.DenseModel{Kind: j.Kind, N: j.N, NB: j.NB}
	props, err := j.Machine.KernelProps(j.Kind.String(), model.Flops())
	if err != nil {
		return memsim.Result{}, err
	}
	props.Eff *= model.TileEff() * model.SizeEff(j.Machine.Plat.Cores)
	r, err := memsim.Evaluate(&cfg, tr, props)
	if err != nil {
		return memsim.Result{}, fmt.Errorf("twin: %s: %w", key, err)
	}
	if gerr := core.GateResult(ctx, injector(eng), key, &r); gerr != nil {
		return memsim.Result{}, gerr
	}
	registry(eng).Counter("twin/serves").Inc()
	return r, nil
}

// registry returns the engine's metrics registry; obs instruments are
// nil-receiver safe, so a nil engine or registry degrades to no-ops.
func registry(eng *sweep.Engine) *obs.Registry {
	if eng == nil {
		return nil
	}
	return eng.Obs
}

func injector(eng *sweep.Engine) *faultinject.Injector {
	if eng == nil {
		return nil
	}
	return eng.Inject
}
