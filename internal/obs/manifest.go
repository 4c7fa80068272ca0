package obs

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"
)

// Manifest is the provenance record attached to a run: what built and
// drove it, on what, with which configuration. It rides in the
// -metrics JSON dump and on opmbench -pprof's /metrics but never in
// the deterministic report bytes — two runs of the same configuration
// produce identical reports and distinct manifests.
type Manifest struct {
	// Tool names the producer (e.g. "opmbench").
	Tool string `json:"tool"`
	// GoVersion, GOOS and GOARCH identify the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is the runtime's processor limit at manifest creation.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the sweep engine's configured pool bound (0 means
	// GOMAXPROCS).
	Workers int `json:"workers"`
	// Machines is the platform/mode matrix available to the run
	// ("broadwell/ddr", "knl/flat", ...).
	Machines []string `json:"machines,omitempty"`
	// ConfigHash fingerprints the run's options (see Hash) so reports
	// from different configurations are never conflated.
	ConfigHash string `json:"config_hash"`
	// Start and End bound the run's wall clock; End is the zero time
	// until Finish is called.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// WallMS is End-Start in milliseconds (0 until Finish).
	WallMS int64 `json:"wall_ms"`
}

// NewManifest records the runtime environment and starts the clock.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      time.Now(), //opmlint:allow determinism — provenance timestamp; manifests ride beside reports and never enter the compared bytes
	}
}

// Finish stamps the end of the run. Safe on a nil manifest.
func (m *Manifest) Finish() {
	if m == nil {
		return
	}
	m.End = time.Now() //opmlint:allow determinism — provenance timestamp; manifests ride beside reports and never enter the compared bytes
	m.WallMS = m.End.Sub(m.Start).Milliseconds()
}

// Hash fingerprints a configuration: FNV-1a over the %#v rendering of
// each value, hex-encoded. Stable across runs of one binary for
// comparable values (structs of scalars, strings, slices) — enough to
// tell two sweep configurations apart in archived metrics dumps.
func Hash(vals ...any) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%#v;", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
