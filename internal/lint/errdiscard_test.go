package lint

import (
	"strings"
	"testing"
)

// TestErrdiscardApplies pins the check's package scope: the journal's
// crash-safety layer (store) and the serving daemon on the journal's
// write path — and nothing else.
func TestErrdiscardApplies(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/store":   true,
		"repro/internal/serve":   true,
		"repro/internal/sweep":   false,
		"repro/internal/harness": false,
		"repro/cmd/opmserve":     false,
	} {
		if got := errdiscardCheck.Applies(nil, &Package{ImportPath: path}); got != want {
			t.Errorf("errdiscard.Applies(%s) = %v, want %v", path, got, want)
		}
	}
}

// TestErrdiscardFlagsServePackage proves the scope extension bites: a
// dropped error inside a package whose path contains "serve" is a
// finding, and the suppression idiom still works there.
func TestErrdiscardFlagsServePackage(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"serve/serve.go": `package serve

import "os"

// Drop loses a removal error — the shape a daemon must never have on
// its journal write path.
func Drop(path string) {
	os.Remove(path)
}

// Suppressed documents why losing it is safe.
func Suppressed(path string) {
	os.Remove(path) //opmlint:allow errdiscard — test: best-effort cleanup of a scratch file
}
`,
	})
	findings, err := Run(dir, Options{Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly the one unsuppressed discard, got:\n%s", FormatText(findings))
	}
	f := findings[0]
	if f.Check != "errdiscard" || !strings.Contains(f.Msg, "discards its error") {
		t.Fatalf("unexpected finding: %+v", f)
	}
}
