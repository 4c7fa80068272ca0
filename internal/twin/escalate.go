package twin

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Escalating serves cells from the analytic twin when the kernel
// family's calibrated error bound is within the caller's tolerance,
// and escalates to the exact simulation otherwise. The decision is a
// pure function of (family, bounds, tolerance) — all fixed at
// construction — so the same job always takes the same path regardless
// of worker count, scheduling, or previous calls.
type Escalating struct {
	twin   Estimator
	exact  core.Estimator
	maxErr float64
	bounds map[string]float64
}

var _ core.Estimator = (*Escalating)(nil)

// NewEscalating builds the auto policy: cells whose family has a
// calibrated MAPE bound <= maxErr are served by the twin, everything
// else by the exact estimator. nil bounds means DefaultBounds(); a
// family absent from bounds always escalates (unknown error is treated
// as unbounded).
func NewEscalating(maxErr float64, bounds map[string]float64) *Escalating {
	if bounds == nil {
		bounds = DefaultBounds()
	}
	b := make(map[string]float64, len(bounds))
	for k, v := range bounds {
		b[Family(k)] = v
	}
	return &Escalating{exact: core.Exact, maxErr: maxErr, bounds: b}
}

// Mode returns "auto".
func (e *Escalating) Mode() string { return "auto" }

// Version folds in everything the served bytes depend on: both
// component model versions, the tolerance, and the calibrated bounds
// in sorted order — so re-calibration or a tolerance change re-keys
// the store instead of aliasing stale auto-mode results.
func (e *Escalating) Version() string {
	fams := make([]string, 0, len(e.bounds))
	for f := range e.bounds {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	var sb strings.Builder
	fmt.Fprintf(&sb, "auto/%s+%s/maxerr=%g", e.exact.Version(), e.twin.Version(), e.maxErr)
	for _, f := range fams {
		fmt.Fprintf(&sb, "/%s=%g", f, e.bounds[f])
	}
	return sb.String()
}

// serveTwin reports whether a kernel family stays on the twin.
func (e *Escalating) serveTwin(family string) bool {
	b, ok := e.bounds[family]
	return ok && b <= e.maxErr
}

// EstimateCell routes one trace cell by its kernel family. Escalations
// are counted under twin/escalations; twin-served cells count their
// own twin/serves inside the twin.
func (e *Escalating) EstimateCell(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *core.Machine, wl trace.Workload, key string) (memsim.Result, error) {
	fam := Family(wl.Name())
	e.gauge(eng, fam)
	if e.serveTwin(fam) {
		return e.twin.EstimateCell(ctx, eng, w, m, wl, key)
	}
	registry(eng).Counter("twin/escalations").Inc()
	obs.TraceEvent(ctx, obs.EvEscalate, fam)
	return e.exact.EstimateCell(ctx, eng, w, m, wl, key)
}

// EstimateMachines routes a whole cell once by its kernel family; an
// escalation counts once per machine under twin/escalations and emits
// one estimator/escalate event.
func (e *Escalating) EstimateMachines(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, ms []*core.Machine, wl trace.Workload, key func(*core.Machine) string) ([]memsim.Result, error) {
	fam := Family(wl.Name())
	e.gauge(eng, fam)
	if e.serveTwin(fam) {
		return e.twin.EstimateMachines(ctx, eng, w, ms, wl, key)
	}
	registry(eng).Counter("twin/escalations").Add(int64(len(ms)))
	obs.TraceEvent(ctx, obs.EvEscalate, fam)
	return e.exact.EstimateMachines(ctx, eng, w, ms, wl, key)
}

// EstimateDense routes one dense cell by its kernel family.
func (e *Escalating) EstimateDense(ctx context.Context, eng *sweep.Engine, j core.DenseJob, key string) (memsim.Result, error) {
	fam := Family(j.Kind.String())
	e.gauge(eng, fam)
	if e.serveTwin(fam) {
		return e.twin.EstimateDense(ctx, eng, j, key)
	}
	registry(eng).Counter("twin/escalations").Inc()
	obs.TraceEvent(ctx, obs.EvEscalate, fam)
	return e.exact.EstimateDense(ctx, eng, j, key)
}

// gauge publishes the calibrated error bound steering this family so a
// metrics snapshot shows why cells escalated (or did not).
func (e *Escalating) gauge(eng *sweep.Engine, family string) {
	b, ok := e.bounds[family]
	if !ok {
		return
	}
	// The family set is the paper's closed eight-kernel roster, so the
	// gauge names form a fixed, enumerable namespace.
	//opmlint:allow counternames — closed eight-kernel family set
	registry(eng).Gauge("twin/err_bound/" + family).Set(b)
}

// Select builds the estimator named by an -estimator flag value:
// "exact", "twin", or "auto" (escalating with tolerance maxErr).
func Select(mode string, maxErr float64) (core.Estimator, error) {
	switch mode {
	case "", "exact":
		return core.Exact, nil
	case "twin":
		return Estimator{}, nil
	case "auto":
		if maxErr <= 0 {
			return nil, fmt.Errorf("twin: auto mode needs a positive -twin-max-err, got %g", maxErr)
		}
		return NewEscalating(maxErr, nil), nil
	}
	return nil, fmt.Errorf("twin: unknown estimator %q (want exact, twin or auto)", mode)
}
