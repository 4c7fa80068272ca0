package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// This file is the result-validation gate: every sweep cell passes
// through it between simulation and the report/store. The gate checks
// the simulator invariants (memsim.Sim.CheckInvariants) and the
// evaluated result's own consistency (memsim.Result.Validate); a
// violation quarantines the result — it is returned as a retryable
// resilience.QuarantineError, never committed to the persistent store,
// and never rendered into a figure. The gate is also where the fault
// injector's "result" chaos point lands: InjectResult corrupts a
// just-computed result so the chaos suite can prove the gate catches
// it.

// CellKey is the stable identity of one sweep cell at the result
// injection point: deterministic across runs and worker schedules.
func CellKey(m *Machine, workload string, flops float64) string {
	return fmt.Sprintf("%s|%s|%g", workload, m.Label(), flops)
}

// InjectResult fires the "result" chaos point for key and, when it
// fires, corrupts r in a way the validation gate must catch (NaN
// throughput). No-op on a nil injector.
func InjectResult(ctx context.Context, inj *faultinject.Injector, key string, r *memsim.Result) {
	if inj.Result(ctx, key) {
		r.GFlops = math.NaN()
	}
}

// EstimateMachines runs the gated simulation path for a machine set:
// the worker's pooled simulators, one memsim.Fanout of the workload
// over all of them (L1 and L2 simulated once per on-chip geometry), then
// per machine in order the estimator event, evaluation, result-
// corruption injection under key(m) and the invariant gate. On a model
// error the machine's pooled simulator is evicted (it may be
// inconsistent); on a gate violation the result is quarantined. Each
// machine that passes records its simulator's counters into eng.Obs.
// eng and its fields may be nil, and so may w (simulators are then
// built per call).
func (ExactEstimator) EstimateMachines(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, ms []*Machine, wl trace.Workload, key func(*Machine) string) ([]memsim.Result, error) {
	var inj *faultinject.Injector
	var reg *obs.Registry
	if eng != nil {
		inj, reg = eng.Inject, eng.Obs
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
		k := key(m)
		InjectResult(ctx, inj, k, &r)
		if verr := sim.CheckInvariants(); verr != nil {
			// A failed simulator invariant means the pooled state itself
			// is suspect: evict it so the retry rebuilds cold.
			w.Drop(m.cfg)
			obs.TraceEvent(ctx, obs.EvGate, "quarantine")
			return out, resilience.Quarantine(k, verr)
		}
		if verr := r.Validate(); verr != nil {
			obs.TraceEvent(ctx, obs.EvGate, "quarantine")
			return out, resilience.Quarantine(k, verr)
		}
		obs.TraceEvent(ctx, obs.EvGate, "ok")
		sim.RecordMetrics(reg)
		out = append(out, r)
	}
	return out, simErr
}

// GateResult applies the result gate to one cell whose simulator is
// out of reach (analytic dense cells, the power figure's representative
// runs): inject, then validate the result-level invariants only.
func GateResult(ctx context.Context, inj *faultinject.Injector, key string, r *memsim.Result) error {
	InjectResult(ctx, inj, key, r)
	if verr := r.Validate(); verr != nil {
		obs.TraceEvent(ctx, obs.EvGate, "quarantine")
		return resilience.Quarantine(key, verr)
	}
	obs.TraceEvent(ctx, obs.EvGate, "ok")
	return nil
}
