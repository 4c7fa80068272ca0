package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The catalog resolves a query onto the exact cell the batch figures
// journal: same digest layout (harness.CellDigest), same compute path
// (harness.CurveSpec.ComputeCell / core.Exact.EstimateDense), same
// stored bytes — so a query warmed by an opmbench run is a store hit,
// and a cell computed by the daemon warms later opmbench runs.

// QueryRequest is the body of POST /v1/query and one element of
// POST /v1/sweep. The cell family is inferred: a kernel + footprint is
// a curve cell (Stream/Stencil/FFT), a kind + n + nb is a dense cell
// (GEMM/Cholesky).
type QueryRequest struct {
	Platform string `json:"platform"` // "broadwell" | "knl"
	Mode     string `json:"mode"`     // memsim mode label: ddr, edram, cache, flat, hybrid, edram-ms

	// Curve cells.
	Kernel    string `json:"kernel,omitempty"`          // Stream | Stencil | FFT
	Footprint int64  `json:"footprint_bytes,omitempty"` // paper-scale bytes

	// Dense cells.
	Kind string `json:"kind,omitempty"` // GEMM | Cholesky
	N    int    `json:"n,omitempty"`
	NB   int    `json:"nb,omitempty"`

	// Class is the admission class ("interactive" default here,
	// "batch" on /v1/sweep).
	Class string `json:"class,omitempty"`
}

// QueryResponse is one answered cell.
type QueryResponse struct {
	Digest string `json:"digest"`
	Trace  string `json:"trace"`
	// Source is where the bytes came from: "hot" (memory), "store"
	// (journal), or "computed".
	Source string `json:"source"`

	GFlops    float64 `json:"gflops"`
	AppGBs    float64 `json:"app_gbs,omitempty"` // curve cells: application-level GB/s
	Footprint int64   `json:"footprint_bytes,omitempty"`

	// Cell is the full cell payload, byte-for-byte as journaled.
	Cell json.RawMessage `json:"cell"`
}

// cell is one resolved query target: its store identity, the mode the
// query asked for, and the compute and view hooks.
type cell struct {
	family  string // store sweep family, also the provenance label Put records
	cfgHash string
	key     string
	mode    memsim.Mode

	compute func(ctx context.Context, w *sweep.Worker) (any, error)
	// view builds the cell's response view: from v, the value compute
	// returned, when the cell was just computed, or else by decoding
	// the view's fields from data, the cell's journaled bytes.
	view func(v any, data []byte) (cellView, error)
}

// numModes sizes a view's per-mode slots: ParseMode accepts the modes
// from ModeDDR through ModeEDRAMMemSide.
const numModes = int(memsim.ModeEDRAMMemSide) + 1

// cellView is what a /v1/query answer reads of its cell, per mode. A
// curve cell's digest does not depend on the mode, so its view holds
// every mode the cell holds and one hot entry answers each. A dense
// cell's digest pins its mode, so its view repeats its numbers in
// every slot.
type cellView struct {
	footprint int64
	gflops    [numModes]float64
	gbs       [numModes]float64
}

// curveView builds a curve cell's view from its harness.CurvePoint,
// decoding one from data when v is not one: the point holds only the
// view's fields.
func curveView(v any, data []byte) (cellView, error) {
	pt, ok := v.(harness.CurvePoint)
	if !ok {
		if err := json.Unmarshal(data, &pt); err != nil {
			return cellView{}, fmt.Errorf("serve: decoding curve cell: %w", err)
		}
	}
	view := cellView{footprint: pt.Footprint}
	for m, g := range pt.GFlops {
		view.gflops[m] = g
	}
	for m, gbs := range pt.GBs {
		view.gbs[m] = gbs
	}
	return view, nil
}

// denseView builds a dense cell's view from its memsim.Result,
// decoding only the two fields the view reads from data when v is not
// one.
func denseView(v any, data []byte) (cellView, error) {
	var r struct {
		GFlops         float64
		FootprintBytes int64
	}
	if res, ok := v.(memsim.Result); ok {
		r.GFlops, r.FootprintBytes = res.GFlops, res.FootprintBytes
	} else if err := json.Unmarshal(data, &r); err != nil {
		return cellView{}, fmt.Errorf("serve: decoding dense cell: %w", err)
	}
	view := cellView{footprint: r.FootprintBytes}
	for m := range view.gflops {
		view.gflops[m] = r.GFlops
	}
	return view, nil
}

// response answers the cell's query from its hot-set entry: the view's
// numbers in the query's mode, and the journaled bytes.
func (c *cell) response(digest, traceID, source string, e hotEntry) QueryResponse {
	return QueryResponse{
		Digest:    digest,
		Trace:     traceID,
		Source:    source,
		GFlops:    e.view.gflops[c.mode],
		AppGBs:    e.view.gbs[c.mode],
		Footprint: e.view.footprint,
		Cell:      e.data,
	}
}

// digest returns the store digest of this cell, byte-compatible with
// the batch sweeps' store cache.
func (c *cell) digest() string {
	return harness.CellDigest(core.Exact, c.family, c.cfgHash, c.key)
}

// catalog caches per-platform curve specs with their config hashes
// (machine construction is cheap but the spec pins identity; one
// instance per platform keeps config hashing consistent, and hashing
// it once keeps it off the per-query path).
type catalog struct {
	mu    sync.Mutex
	specs map[string]catalogSpec
}

// catalogSpec is one platform's curve spec and its ConfigHash.
type catalogSpec struct {
	spec    *harness.CurveSpec
	cfgHash string
}

func newCatalog() *catalog {
	return &catalog{specs: map[string]catalogSpec{}}
}

func (c *catalog) spec(platform string) (catalogSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.specs[platform]; ok {
		return s, nil
	}
	spec, err := harness.NewCurveSpec(platform)
	if err != nil {
		return catalogSpec{}, err
	}
	s := catalogSpec{spec: spec, cfgHash: spec.ConfigHash()}
	c.specs[platform] = s
	return s, nil
}

// resolve maps a request onto its cell, validating platform, mode and
// parameters. eng is the engine the cell computes under.
func (c *catalog) resolve(req QueryRequest, eng *sweep.Engine) (*cell, error) {
	cs, err := c.spec(req.Platform)
	if err != nil {
		return nil, err
	}
	spec := cs.spec
	mode, err := memsim.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	mach, ok := spec.Machine(mode)
	if !ok {
		return nil, fmt.Errorf("serve: platform %q does not run mode %q", req.Platform, req.Mode)
	}

	switch {
	case req.Kernel != "" && req.Kind == "":
		if req.Footprint <= 0 {
			return nil, fmt.Errorf("serve: curve query needs a positive footprint_bytes, got %d", req.Footprint)
		}
		if _, err := spec.Workload(req.Kernel, req.Footprint); err != nil {
			return nil, err
		}
		kernel, fp := req.Kernel, req.Footprint
		return &cell{
			family:  harness.CurveSweepID(kernel),
			cfgHash: cs.cfgHash,
			key:     harness.CurveCellKey(fp),
			mode:    mode,
			compute: func(ctx context.Context, w *sweep.Worker) (any, error) {
				return spec.ComputeCell(ctx, eng, w, core.Exact, kernel, fp)
			},
			view: curveView,
		}, nil

	case req.Kind != "" && req.Kernel == "":
		var kind trace.DenseKind
		switch req.Kind {
		case "GEMM":
			kind = trace.DenseGEMM
		case "Cholesky":
			kind = trace.DenseCholesky
		default:
			return nil, fmt.Errorf("serve: unknown dense kind %q (want GEMM or Cholesky)", req.Kind)
		}
		if req.N <= 0 || req.NB <= 0 || req.NB > req.N {
			return nil, fmt.Errorf("serve: dense query needs 0 < nb <= n, got n=%d nb=%d", req.N, req.NB)
		}
		j := core.DenseJob{Machine: mach, Kind: kind, N: req.N, NB: req.NB}
		return &cell{
			family:  harness.DenseSweepID,
			cfgHash: "",
			key:     harness.DenseKey(j),
			mode:    mode,
			compute: func(ctx context.Context, _ *sweep.Worker) (any, error) {
				// Dense cells are analytic; no pooled simulator involved.
				return core.Exact.EstimateDense(ctx, eng, j, core.DenseCellKey(j))
			},
			view: denseView,
		}, nil
	}
	return nil, fmt.Errorf("serve: query must name either a curve kernel (kernel + footprint_bytes) or a dense cell (kind + n + nb)")
}
