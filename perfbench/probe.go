package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark host is shared: its speed drifts by up to ~1.8× within
// seconds and for minutes at a time, as other tenants load the cores the
// benchmark's vCPUs run on, while process CPU time shows no steal (user
// time grows with the wall time). That drift moves whole runs, so
// medians over a run's passes do not remove it. Two fixed probes measure
// the host's current speed:
//
//   - probe, run between set-ups, times a whole set-up interval;
//   - a meter's slices, ~0.4 ms each, run by the workers themselves
//     between cells during an untraced pass, so the host's speed is
//     sampled every few milliseconds on the cores, and under the load,
//     the pass runs with. Every timing of the pass is then integrated
//     over the sampled slowdown (meter.scaled).
//
// Each reports timings at the speed the host had when probeRef and
// sliceRef were recorded. The probes are this package's own code and
// call nothing in the repository, so no change to the program moves
// them. Like the simulators they are integer and branch work over a
// multi-megabyte table.

// probeRef is the probe's time on the benchmark host when it ran at its
// usual speed (2-core x86-64 container, Intel Xeon, 2.0 GHz): the
// median of the probes of ten quiet runs.
const probeRef = 135 * time.Millisecond

const (
	probeSets = 1 << 15
	probeWays = 8
	// probeLines is the length of each goroutine's address stream.
	probeLines = 3 << 20
)

// probeState is one goroutine's cache: tags and LRU ages, allocated once
// so that a probe allocates nothing.
type probeState struct {
	tags, age []uint64
	hits      uint64
}

var probeStates = func() []*probeState {
	s := make([]*probeState, batchWorkers)
	for i := range s {
		s[i] = &probeState{tags: make([]uint64, probeSets*probeWays), age: make([]uint64, probeSets*probeWays)}
	}
	return s
}()

// probe collects the heap, so that no pass's garbage is swept inside it,
// then runs the mini cache simulation on every probe goroutine at once
// and returns the wall time.
func probe() time.Duration {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, s := range probeStates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(uint64(i) + 1)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// slowdown is the host's slowdown over the interval between two probes:
// their mean time over probeRef.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(probeRef)
}

// run walks probeLines lines through the cache from empty.
func (s *probeState) run(seed uint64) {
	clear(s.tags)
	clear(s.age)
	s.walk(seed, probeLines)
}

// walk runs a sequential stream of n lines with one random line in four
// through an 8-way LRU cache of probeSets sets.
func (s *probeState) walk(seed, n uint64) {
	x := seed * 0x9e3779b97f4a7c15
	var hits, clock uint64
	for i := uint64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := i
		if x&3 == 0 {
			line = x >> 40
		}
		base := (line & (probeSets - 1)) * probeWays
		clock++
		victim, oldest := base, s.age[base]
		hit := false
		for w := base; w < base+probeWays; w++ {
			if s.tags[w] == line+1 {
				s.age[w] = clock
				hit = true
				break
			}
			if s.age[w] < oldest {
				victim, oldest = w, s.age[w]
			}
		}
		if hit {
			hits++
			continue
		}
		s.tags[victim] = line + 1
		s.age[victim] = clock
	}
	s.hits = hits
}

// sliceRef is a slice's time at the host speed of probeRef; sliceLines
// is the length of its stream.
const (
	sliceRef   = 420 * time.Microsecond
	sliceLines = 1 << 14
)

// hostSample is one slice: when it ran (its midpoint) and the host's
// slowdown, its time over sliceRef.
type hostSample struct {
	at   time.Time
	slow float64
}

// meter samples the host's speed during an untraced pass. A nil meter
// (traced runs) takes no samples and scales nothing.
type meter struct {
	free    chan *probeState
	mu      sync.Mutex
	samples []hostSample
}

// newMeter builds one slice state per worker, each warmed by one slice,
// so every later slice walks the same stream over the same table.
func newMeter(workers int) *meter {
	m := &meter{free: make(chan *probeState, workers)}
	for i := 0; i < workers; i++ {
		s := &probeState{tags: make([]uint64, probeSets*probeWays), age: make([]uint64, probeSets*probeWays)}
		s.walk(1, sliceLines)
		m.free <- s
	}
	return m
}

// tick runs a slice before unit i of a pass when i is a multiple of
// every; the units are cells or queries, numbered in submission order,
// so a pass runs the same number of slices every time.
func (m *meter) tick(i, every int) {
	if m == nil || i%every != 0 {
		return
	}
	s := <-m.free
	t0 := time.Now()
	s.walk(1, sliceLines)
	d := time.Since(t0)
	m.free <- s
	m.mu.Lock()
	m.samples = append(m.samples, hostSample{t0.Add(d / 2), float64(d) / float64(sliceRef)})
	m.mu.Unlock()
}

// reset drops the samples of the previous pass.
func (m *meter) reset() {
	if m != nil {
		m.samples = m.samples[:0]
	}
}

// freeze orders the samples by time; call it when the pass has ended.
func (m *meter) freeze() {
	if m != nil {
		sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].at.Before(m.samples[j].at) })
	}
}

// slices returns how many slices the pass ran and their median slowdown.
func (m *meter) slices() (int, float64) {
	if m == nil {
		return 0, 1
	}
	s := make([]float64, len(m.samples))
	for i, h := range m.samples {
		s[i] = h.slow
	}
	return len(s), median(s)
}

// scaled returns the length of [t0, t0+d] at the reference host speed:
// the integral of dt / slowdown(t)^beta, with the integrand interpolated
// linearly between the samples and held beyond the first and the last.
// beta is how strongly the timed work slows down with the slices (see
// workloadDef.beta). With no samples it returns d.
func (m *meter) scaled(t0 time.Time, d time.Duration, beta float64) time.Duration {
	if m == nil || len(m.samples) == 0 || d <= 0 {
		return d
	}
	t1 := t0.Add(d)
	ss := m.samples
	v := func(h hostSample) float64 { return math.Pow(h.slow, -beta) }
	speed := func(t time.Time) float64 {
		k := sort.Search(len(ss), func(i int) bool { return !ss[i].at.Before(t) })
		switch {
		case k == 0:
			return v(ss[0])
		case k == len(ss):
			return v(ss[k-1])
		}
		a, b := ss[k-1], ss[k]
		f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
		return (1-f)*v(a) + f*v(b)
	}
	// Breakpoints: t0, every sample inside (t0, t1), t1.
	k := sort.Search(len(ss), func(i int) bool { return ss[i].at.After(t0) })
	var total float64
	prev, vprev := t0, speed(t0)
	for ; k < len(ss) && ss[k].at.Before(t1); k++ {
		vk := v(ss[k])
		total += float64(ss[k].at.Sub(prev)) * (vprev + vk) / 2
		prev, vprev = ss[k].at, vk
	}
	total += float64(t1.Sub(prev)) * (vprev + speed(t1)) / 2
	return time.Duration(total)
}
