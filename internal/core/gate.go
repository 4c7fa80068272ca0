package core

import (
	"context"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// This file is the result-validation gate: every sweep cell passes
// through it between simulation and the report/store. The gate checks
// the simulator invariants (memsim.Sim.CheckInvariants) and the
// evaluated result's own consistency (memsim.Result.Validate). A
// violation quarantines the result: the cell's pooled simulator is
// evicted, gate/quarantined counts it, and the cell fails with an
// error naming its key, so the result is never committed to the
// persistent store and never rendered into a figure.

// quarantine records one gate violation and wraps its cause under key.
func quarantine(ctx context.Context, reg *obs.Registry, key string, verr error) error {
	reg.Counter("gate/quarantined").Inc()
	obs.TraceEvent(ctx, obs.EvGate, "quarantine")
	return fmt.Errorf("core: quarantined invalid result (%s): %w", key, verr)
}

// EstimateMachines runs the gated simulation path for a machine set:
// the worker's pooled simulators, one memsim.Fanout of the workload
// over all of them (L1 and L2 simulated once per on-chip geometry), then
// per machine in order the estimator event, evaluation and the
// invariant gate under key(m). On a model error or a gate violation the
// machine's pooled simulator is evicted (it may be inconsistent); a
// violation also counts gate/quarantined in eng.Obs. Each machine that
// passes records its simulator's counters into eng.Obs. eng and its
// fields may be nil, and so may w (simulators are then built per call).
func (ExactEstimator) EstimateMachines(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, ms []*Machine, wl trace.Workload, key func(*Machine) string) ([]memsim.Result, error) {
	var reg *obs.Registry
	if eng != nil {
		reg = eng.Obs
	}
	sims := make([]*memsim.Sim, 0, len(ms))
	var simErr error
	for _, m := range ms {
		sim, err := m.PooledSim(w)
		if err != nil {
			simErr = err
			break
		}
		sims = append(sims, sim)
	}
	memsim.Fanout(sims, wl.Simulate)
	out := make([]memsim.Result, 0, len(ms))
	for i, sim := range sims {
		m := ms[i]
		obs.TraceEvent(ctx, obs.EvEstimator, "exact")
		r, err := m.evaluate(sim, wl)
		if err != nil {
			w.Drop(m.cfg)
			return out, fmt.Errorf("core: %s on %s: %w", wl.Name(), m.Label(), err)
		}
		verr := sim.CheckInvariants()
		if verr == nil {
			verr = r.Validate()
		}
		if verr != nil {
			w.Drop(m.cfg)
			return out, quarantine(ctx, reg, key(m), verr)
		}
		obs.TraceEvent(ctx, obs.EvGate, "ok")
		sim.RecordMetrics(reg)
		out = append(out, r)
	}
	return out, simErr
}

// GateResult applies the result gate to one cell whose simulator is
// out of reach (analytic dense cells, the power figure's representative
// runs): the result-level invariants only. A violation counts
// gate/quarantined in reg, which may be nil.
func GateResult(ctx context.Context, reg *obs.Registry, key string, r *memsim.Result) error {
	if verr := r.Validate(); verr != nil {
		return quarantine(ctx, reg, key, verr)
	}
	obs.TraceEvent(ctx, obs.EvGate, "ok")
	return nil
}
