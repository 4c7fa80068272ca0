package determinism

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock from library code — exactly what a model
// package must never do.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed leaks the wall clock through time.Since.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// Jitter draws from the process-global, unseeded random source.
func Jitter() float64 {
	return rand.Float64()
}

// Remaining leaks the wall clock through time.Until.
func Remaining(deadline time.Time) time.Duration {
	return time.Until(deadline)
}
