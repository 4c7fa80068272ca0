package sweep

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// mapCache is a threadsafe map-backed Cache for tests. lookups counts
// the Lookup calls per job.
type mapCache struct {
	mu      sync.Mutex
	data    map[int]string
	commits map[int]string
	lookups map[int]int
}

func newMapCache(warm map[int]string) *mapCache {
	if warm == nil {
		warm = map[int]string{}
	}
	return &mapCache{data: warm, commits: map[int]string{}, lookups: map[int]int{}}
}

func (c *mapCache) Lookup(job int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups[job]++
	r, ok := c.data[job]
	return r, ok
}

func (c *mapCache) Commit(job int, r string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commits[job] = r
	c.data[job] = r
}

func cachedFn(executed *sync.Map) func(context.Context, *Worker, int) (string, error) {
	return func(_ context.Context, _ *Worker, job int) (string, error) {
		executed.Store(job, true)
		return fmt.Sprintf("r%d", job), nil
	}
}

func TestMapCachedHitsBypassPoolAndKeepOrder(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	warm := map[int]string{}
	for _, j := range jobs {
		if j%2 == 0 {
			warm[j] = fmt.Sprintf("r%d", j)
		}
	}
	cache := newMapCache(warm)
	var executed sync.Map
	results, err := MapCached(context.Background(), &Engine{Workers: 4}, jobs, cache, cachedFn(&executed))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("r%d", j); results[i] != want {
			t.Fatalf("results[%d] = %q want %q", i, results[i], want)
		}
	}
	for _, j := range jobs {
		_, ran := executed.Load(j)
		if j%2 == 0 && ran {
			t.Fatalf("cached job %d executed", j)
		}
		if j%2 == 1 && !ran {
			t.Fatalf("uncached job %d skipped", j)
		}
	}
	// Only the misses were committed.
	if len(cache.commits) != 5 {
		t.Fatalf("commits: %v", cache.commits)
	}
	for j, r := range cache.commits {
		if j%2 != 1 || r != fmt.Sprintf("r%d", j) {
			t.Fatalf("bad commit %d=%q", j, r)
		}
	}
}

func TestMapCachedAllHitsRunsNothing(t *testing.T) {
	jobs := []int{1, 2, 3}
	warm := map[int]string{1: "r1", 2: "r2", 3: "r3"}
	var lastProgress Progress
	e := &Engine{Progress: func(p Progress) { lastProgress = p }}
	results, err := MapCached(context.Background(), e, jobs, newMapCache(warm),
		func(context.Context, *Worker, int) (string, error) {
			t.Fatal("fn called on fully warm sweep")
			return "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] != "r1" || results[2] != "r3" {
		t.Fatalf("results: %v", results)
	}
	if lastProgress.Done != 3 || lastProgress.Total != 3 {
		t.Fatalf("fully warm sweep should report completion: %+v", lastProgress)
	}
}

func TestMapCachedErrorIndicesAreOriginal(t *testing.T) {
	jobs := []int{10, 11, 12, 13, 14}
	warm := map[int]string{10: "r10", 12: "r12"} // misses: 11, 13, 14
	boom := errors.New("boom")
	_, err := MapCached(context.Background(), &Engine{Workers: 1}, jobs, newMapCache(warm),
		func(_ context.Context, _ *Worker, job int) (string, error) {
			if job == 13 {
				return "", boom
			}
			return fmt.Sprintf("r%d", job), nil
		})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 1 {
		t.Fatalf("err = %v", err)
	}
	// Job 13 is miss #1 but submission index 3; the JobError must
	// carry the submission index.
	if errs[0].Index != 3 || !errors.Is(errs[0], boom) {
		t.Fatalf("JobError = %+v", errs[0])
	}
}

func TestMapCachedProgressIncludesHits(t *testing.T) {
	jobs := make([]int, 8)
	warm := map[int]string{}
	for i := range jobs {
		jobs[i] = i
		if i < 6 {
			warm[i] = fmt.Sprintf("r%d", i)
		}
	}
	var mu sync.Mutex
	var dones []int
	e := &Engine{Workers: 1, Progress: func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, p.Done)
		if p.Total != 8 {
			t.Errorf("Total = %d want 8", p.Total)
		}
	}}
	var executed sync.Map
	if _, err := MapCached(context.Background(), e, jobs, newMapCache(warm), cachedFn(&executed)); err != nil {
		t.Fatal(err)
	}
	// Hits and misses alike count when their worker finishes them.
	want := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if !slices.Equal(dones, want) {
		t.Fatalf("progress Done sequence: %v (want %v)", dones, want)
	}
}

// TestMapCachedETAIgnoresHits resumes a sweep whose first 90 jobs are
// committed: they hit at once, and then 10 slow misses run. Halfway
// through the misses the ETA must cover the misses still to run, not
// extrapolate from 95 finished jobs, most of them instant hits.
func TestMapCachedETAIgnoresHits(t *testing.T) {
	const hits, misses = 90, 10
	jobs := make([]int, hits+misses)
	warm := map[int]string{}
	for i := range jobs {
		jobs[i] = i
		if i < hits {
			warm[i] = fmt.Sprintf("r%d", i)
		}
	}
	var reports []Progress
	e := &Engine{Workers: 1, Progress: func(p Progress) { reports = append(reports, p) }}
	if _, err := MapCached(context.Background(), e, jobs, newMapCache(warm), func(_ context.Context, _ *Worker, j int) (string, error) {
		time.Sleep(5 * time.Millisecond)
		return fmt.Sprintf("r%d", j), nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(jobs) {
		t.Fatalf("%d reports, want %d", len(reports), len(jobs))
	}
	for _, p := range reports[:hits] {
		if p.ETA != 0 {
			t.Fatalf("ETA %v before any job ran: %+v", p.ETA, p)
		}
	}
	// The mean miss time, from the reports around the first half of
	// the misses, keeps the bound independent of the host's speed.
	half := reports[hits+misses/2-1]
	perMiss := (half.Elapsed - reports[hits-1].Elapsed) / (misses / 2)
	left := time.Duration(len(jobs)-half.Done) * perMiss
	if half.ETA < left/2 {
		t.Fatalf("ETA %v at %d/%d, with %v of misses left (%v each)", half.ETA, half.Done, half.Total, left, perMiss)
	}
}

func TestMapCachedNilCacheEqualsMap(t *testing.T) {
	jobs := []int{1, 2, 3}
	var executed sync.Map
	got, err := MapCached[int, string](context.Background(), nil, jobs, nil, cachedFn(&executed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Map(context.Background(), nil, jobs, cachedFn(&executed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil-cache MapCached diverges from Map at %d", i)
		}
	}
}

func TestMapCachedFailedJobsNotCommitted(t *testing.T) {
	jobs := []int{0, 1, 2}
	cache := newMapCache(nil)
	_, err := MapCached(context.Background(), &Engine{Workers: 1}, jobs, cache,
		func(_ context.Context, _ *Worker, job int) (string, error) {
			if job == 1 {
				return "", errors.New("bad cell")
			}
			return fmt.Sprintf("r%d", job), nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if _, ok := cache.commits[1]; ok {
		t.Fatal("failed job was committed")
	}
	if len(cache.commits) != 2 {
		t.Fatalf("commits: %v", cache.commits)
	}
}

// halfWarm returns n jobs 0..n-1 and a warm set holding every even one.
func halfWarm(n int) ([]int, map[int]string) {
	jobs := make([]int, n)
	warm := map[int]string{}
	for i := range jobs {
		jobs[i] = i
		if i%2 == 0 {
			warm[i] = fmt.Sprintf("r%d", i)
		}
	}
	return jobs, warm
}

// TestMapCachedLookupsOnWorkers runs a half-warm sweep on four workers,
// whose lookups overlap each other's computes and commits, with a
// registry attached: every job is looked up exactly once, no hit runs
// fn or commits, the per-job instruments count the misses alone, and
// the results equal a one-worker run's.
func TestMapCachedLookupsOnWorkers(t *testing.T) {
	jobs, warm := halfWarm(64)
	run := func(workers int) ([]string, *mapCache, *obs.Registry, *sync.Map) {
		cache := newMapCache(maps.Clone(warm))
		reg := obs.NewRegistry()
		var executed sync.Map
		res, err := MapCached(context.Background(), &Engine{Workers: workers, Obs: reg}, jobs, cache, cachedFn(&executed))
		if err != nil {
			t.Fatal(err)
		}
		return res, cache, reg, &executed
	}
	want, _, _, _ := run(1)
	got, cache, reg, executed := run(4)
	if !slices.Equal(got, want) {
		t.Fatalf("4 workers: %v\n1 worker:  %v", got, want)
	}
	for _, j := range jobs {
		if n := cache.lookups[j]; n != 1 {
			t.Errorf("job %d looked up %d times, want once", j, n)
		}
		_, ran := executed.Load(j)
		_, committed := cache.commits[j]
		_, hit := warm[j]
		if ran == hit || committed == hit {
			t.Errorf("job %d (hit %v): fn ran %v, committed %v", j, hit, ran, committed)
		}
	}
	misses := int64(len(jobs) - len(warm))
	if n := reg.Counter("sweep/jobs").Value(); n != misses {
		t.Errorf("sweep/jobs = %d, want the %d misses", n, misses)
	}
	if n := reg.Histogram("sweep/job_latency").Count(); n != misses {
		t.Errorf("sweep/job_latency count = %d, want the %d misses", n, misses)
	}
}

// TestMapCachedCancelSkipsUnstartedJobs cancels a half-warm sweep from
// its first miss: the sweep returns promptly, and every job no worker
// drew, hits included, carries the context error and no result.
func TestMapCachedCancelSkipsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs, warm := halfWarm(200)
	cache := newMapCache(warm)
	begin := time.Now()
	res, err := MapCached(ctx, &Engine{Workers: 2}, jobs, cache, func(ctx context.Context, _ *Worker, _ int) (string, error) {
		cancel()
		<-ctx.Done()
		return "", ctx.Err()
	})
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	var errs Errors
	if !errors.As(err, &errs) || !errs.Canceled() {
		t.Fatalf("cancelled sweep err = %v", err)
	}
	failed := map[int]error{}
	for _, je := range errs {
		failed[je.Index] = je.Err
	}
	skipped := 0
	for _, j := range jobs {
		if cache.lookups[j] > 0 {
			continue
		}
		skipped++
		if !errors.Is(failed[j], context.Canceled) || res[j] != "" {
			t.Errorf("unstarted job %d: err %v, result %q", j, failed[j], res[j])
		}
	}
	if skipped < len(jobs)/2 {
		t.Fatalf("%d of %d jobs skipped; the first miss must stop the sweep", skipped, len(jobs))
	}
}

// warmCache is a fixed, mutex-guarded Cache: Commit takes the lock to
// count and keeps nothing, so every sweep over it sees the same hits.
type warmCache struct {
	mu      sync.Mutex
	warm    map[int]string
	commits int
}

func (c *warmCache) Lookup(j int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.warm[j]
	return r, ok
}

func (c *warmCache) Commit(int, string) {
	c.mu.Lock()
	c.commits++
	c.mu.Unlock()
}

// BenchmarkMapCached pins MapCached's per-job cost: 4,096 no-op jobs on
// two workers, every other one warm in a mutex-guarded map cache, with
// no telemetry, tracing or progress attached.
func BenchmarkMapCached(b *testing.B) {
	jobs, warm := halfWarm(4096)
	c := &warmCache{warm: warm}
	e := &Engine{Workers: 2}
	fn := func(context.Context, *Worker, int) (string, error) { return "r", nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MapCached(context.Background(), e, jobs, c, fn); err != nil {
			b.Fatal(err)
		}
	}
}
