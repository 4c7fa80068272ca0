package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// POST /v1/sweep accepts a batch of queries, answers them
// asynchronously under the "batch" admission class, and returns a job
// ID to poll on GET /v1/jobs/{id}. Batch cells run through exactly the
// same serving path as single queries — hot set, journal, admission,
// worker pool — so a sweep re-requesting warm cells costs memory
// lookups.

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Queries []QueryRequest `json:"queries"`
	// Class overrides the admission class for every cell (default
	// "batch").
	Class string `json:"class,omitempty"`
}

// JobStatus is the poll view of one batch job.
type JobStatus struct {
	ID      string           `json:"id"`
	State   string           `json:"state"` // "running" | "done"
	Total   int              `json:"total"`
	Done    int              `json:"done"`
	Failed  int              `json:"failed"`
	Results []*QueryResponse `json:"results,omitempty"` // per query; nil where errored
	Errors  []string         `json:"errors,omitempty"`  // per query; "" where ok
}

// jobTable tracks batch jobs, retaining the most recent `keep`
// finished ones.
type jobTable struct {
	mu       sync.Mutex
	next     int
	jobs     map[string]*JobStatus
	finished []string // FIFO of done job IDs for eviction
	keep     int
}

func newJobTable(keep int) *jobTable {
	if keep < 1 {
		keep = 1
	}
	return &jobTable{jobs: map[string]*JobStatus{}, keep: keep}
}

func (t *jobTable) create(total int) *JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	j := &JobStatus{
		ID:      fmt.Sprintf("job-%d", t.next),
		State:   "running",
		Total:   total,
		Results: make([]*QueryResponse, total),
		Errors:  make([]string, total),
	}
	t.jobs[j.ID] = j
	return j
}

// update records one cell's outcome under the table lock.
func (t *jobTable) update(j *JobStatus, i int, resp *QueryResponse, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.Done++
	if err != nil {
		j.Failed++
		j.Errors[i] = err.Error()
	} else {
		j.Results[i] = resp
	}
}

// finish marks a job done and evicts the oldest finished jobs past
// the retention bound.
func (t *jobTable) finish(j *JobStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.State = "done"
	t.finished = append(t.finished, j.ID)
	for len(t.finished) > t.keep {
		delete(t.jobs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// get returns a deep-enough copy to render without racing updates.
func (t *jobTable) get(id string) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	cp := *j
	cp.Results = append([]*QueryResponse(nil), j.Results...)
	cp.Errors = append([]string(nil), j.Errors...)
	return cp, true
}

func (t *jobTable) counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	running := 0
	for _, j := range t.jobs {
		if j.State == "running" {
			running++
		}
	}
	return map[string]int{"tracked": len(t.jobs), "running": running}
}

// handleSweep accepts a batch and answers it asynchronously.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		httpError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	var req SweepRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.done()
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding sweep: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		s.done()
		httpError(w, http.StatusBadRequest, errors.New("serve: sweep needs at least one query"))
		return
	}
	class := req.Class
	if class == "" {
		class = "batch"
	}
	job := s.jobs.create(len(req.Queries))
	s.reg.Counter("serve/sweeps").Inc()
	// The accepted batch holds its drain slot until every cell is
	// answered — graceful shutdown never abandons an accepted sweep.
	// Cells run under the server's base context, not the HTTP request's
	// (the response is already gone), so an interrupted Drain can still
	// cancel a half-finished batch instead of leaking it.
	go func() {
		defer s.done()
		defer s.jobs.finish(job)
		for i, q := range req.Queries {
			q.Class = class
			resp, err := s.answer(s.base, q)
			s.jobs.update(job, i, &resp, err)
		}
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"job": job.ID})
}

// handleJob reports a batch job's progress and results.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j)
}
