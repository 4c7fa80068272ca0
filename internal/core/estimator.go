package core

import (
	"context"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Estimator is the pluggable evaluation policy behind every sweep
// cell. The harness runners and the serve daemon are written against
// this interface, not against the per-access simulator, so the same
// figure can be produced by the exact simulation (Exact), by the
// analytic stepping twin (internal/twin), or by an escalation policy
// mixing the two.
//
// Mode and Version together are the estimator's identity in the
// persistent result store: digests of non-exact estimators fold both
// in, so a twin-computed cell can never alias an exact one in the
// content-addressed journal (DESIGN.md §11). Implementations must be
// deterministic — the same job must produce the same Result bytes
// regardless of worker count or scheduling — and safe for concurrent
// use from sweep workers.
type Estimator interface {
	// Mode names the policy: "exact", "twin" or "auto".
	Mode() string
	// Version names the model generation producing the numbers (the
	// exact estimator returns ModelVersion). Any change that alters a
	// result must bump it, exactly like ModelVersion.
	Version() string
	// EstimateCell evaluates one trace-simulation cell: workload wl on
	// machine m. w is the sweep worker owning pooled simulators (may
	// be nil for estimators that do not simulate); key identifies the
	// cell to the fault injector and the quarantine record. Every
	// implementation must pass its result through the validation gate.
	EstimateCell(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *Machine, wl trace.Workload, key string) (memsim.Result, error)
	// EstimateMachines evaluates one trace cell on every machine of ms,
	// each under its own key(m), with the trace events, fault points
	// and gates of one EstimateCell per machine in order. It returns one
	// result per machine; on failure it returns the results of the
	// machines before the failing one, so ms[len(results)] names it.
	EstimateMachines(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, ms []*Machine, wl trace.Workload, key func(*Machine) string) ([]memsim.Result, error)
	// EstimateDense evaluates one analytic dense-model cell.
	EstimateDense(ctx context.Context, eng *sweep.Engine, j DenseJob, key string) (memsim.Result, error)
}

// Exact is the shared exact estimator: the per-access hierarchy
// simulation plus Stepping-model timing the repo has always run. It is
// the default wherever an Estimator is optional.
var Exact Estimator = ExactEstimator{}

// ExactEstimator wraps the per-access simulation path behind the
// Estimator interface. Its results equal Machine.Run and RunDense plus
// the gate — proven by the regression tests — and it keeps the
// historical store-digest layout, so warm stores stay valid.
type ExactEstimator struct{}

// Mode returns "exact".
func (ExactEstimator) Mode() string { return "exact" }

// Version returns ModelVersion: the exact estimator is the model the
// digest scheme has always named.
func (ExactEstimator) Version() string { return ModelVersion }

// EstimateCell is EstimateMachines on one machine.
func (e ExactEstimator) EstimateCell(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *Machine, wl trace.Workload, key string) (memsim.Result, error) {
	rs, err := e.EstimateMachines(ctx, eng, w, []*Machine{m}, wl, func(*Machine) string { return key })
	if err != nil {
		return memsim.Result{}, err
	}
	return rs[0], nil
}

// EstimateDense evaluates the analytic dense model and applies the
// result-level gate.
func (ExactEstimator) EstimateDense(ctx context.Context, eng *sweep.Engine, j DenseJob, key string) (memsim.Result, error) {
	obs.TraceEvent(ctx, obs.EvEstimator, "exact")
	var inj *faultinject.Injector
	if eng != nil {
		inj = eng.Inject
	}
	r, err := j.Machine.RunDense(j.Kind, j.N, j.NB)
	if err != nil {
		return memsim.Result{}, fmt.Errorf("core: %s n=%d nb=%d on %s: %w", j.Kind, j.N, j.NB, j.Machine.Label(), err)
	}
	if gerr := GateResult(ctx, inj, key, &r); gerr != nil {
		return memsim.Result{}, gerr
	}
	return r, nil
}

// DenseCellKey is the stable identity of one dense analytic cell at
// the result injection point — the dense counterpart of CellKey.
func DenseCellKey(j DenseJob) string {
	return fmt.Sprintf("%s|n=%d|nb=%d|%s", j.Kind, j.N, j.NB, j.Machine.Label())
}
