package lint

import (
	"strings"
	"testing"
)

// Suppression-directive hygiene for the three interprocedural checks:
// for each, a well-formed //opmlint:allow must actually silence a real
// violation, while a malformed directive (no reason), one naming an
// unknown check, and one suppressing nothing must each surface as
// synthetic "opmlint" findings — the same contract the PR-5 checks
// honor. Each case is a scratch module under internal/ (goroleak only
// applies there) holding one violation of its check and the three bad
// directives.
func TestDirectiveHygieneInterprocChecks(t *testing.T) {
	cases := map[string]string{
		"ctxflow": `package p

import "context"

func root() context.Context {
	return context.Background() //opmlint:allow ctxflow — scratch: sanctioned root
}

//opmlint:allow ctxflow
var malformed = 1

//opmlint:allow nosuchcheck — scratch reason
var unknown = 2

//opmlint:allow ctxflow — suppresses nothing
var unused = 3
`,
		"goroleak": `package p

func spin() {
	//opmlint:allow goroleak — scratch: process-lifetime monitor
	go func() {
		for {
		}
	}()
}

//opmlint:allow goroleak
var malformed = 1

//opmlint:allow nosuchcheck — scratch reason
var unknown = 2

//opmlint:allow goroleak — suppresses nothing
var unused = 3
`,
		"lockscope": `package p

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) publish(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v //opmlint:allow lockscope — scratch: the mutex is the serialization point
}

//opmlint:allow lockscope
var malformed = 1

//opmlint:allow nosuchcheck — scratch reason
var unknown = 2

//opmlint:allow lockscope — suppresses nothing
var unused = 3
`,
	}
	for check, src := range cases {
		t.Run(check, func(t *testing.T) {
			dir := scratchModule(t, map[string]string{"internal/p/p.go": src})
			findings, err := Run(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var gotMalformed, gotUnknown, gotUnused bool
			for _, f := range findings {
				if f.Check == check {
					t.Errorf("well-formed directive failed to suppress the %s violation: %s:%d %s",
						check, f.File, f.Line, f.Msg)
					continue
				}
				if f.Check != "opmlint" {
					t.Errorf("unexpected check %q fired: %s:%d %s", f.Check, f.File, f.Line, f.Msg)
					continue
				}
				switch {
				case strings.Contains(f.Msg, "missing reason"):
					gotMalformed = true
				case strings.Contains(f.Msg, `unknown check "nosuchcheck"`):
					gotUnknown = true
				case strings.Contains(f.Msg, "unused //opmlint:allow "+check):
					gotUnused = true
				default:
					t.Errorf("unclassified opmlint finding: %s", f.Msg)
				}
			}
			if !gotMalformed {
				t.Errorf("%s: malformed (reason-less) directive was not reported", check)
			}
			if !gotUnknown {
				t.Errorf("%s: unknown-check directive was not reported", check)
			}
			if !gotUnused {
				t.Errorf("%s: unused directive was not reported", check)
			}
		})
	}
}
