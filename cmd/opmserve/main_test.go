package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// FuzzParseAdmit holds opmserve's -admit grammar (class=rate:burst:queue,
// comma-separated) to three properties. parseAdmit never panics. A
// spec that parseAdmit and serve.New both accept has only finite
// positive rates. And every accepted spec round-trips: its classes,
// re-formatted with names sorted and rates in shortest 'g' form, parse
// back to an equal map. The committed seeds under
// testdata/fuzz/FuzzParseAdmit hold the two- and three-class specs,
// NaN, Inf and overflowing rates, a missing field, an extra ':', an
// empty entry and a class name with a space.
func FuzzParseAdmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		classes := map[string]serve.ClassConfig{}
		if err := parseAdmit(spec, classes); err != nil {
			return
		}
		if _, err := serve.New(serve.Config{Classes: classes, Workers: 1}); err == nil {
			for name, c := range classes {
				if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate <= 0 {
					t.Fatalf("%q: serve.New accepted class %q with rate %g", spec, name, c.Rate)
				}
			}
		}

		names := make([]string, 0, len(classes))
		for name := range classes {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			c := classes[name]
			parts[i] = name + "=" + strconv.FormatFloat(c.Rate, 'g', -1, 64) + ":" +
				strconv.Itoa(c.Burst) + ":" + strconv.Itoa(c.Queue)
		}
		text := strings.Join(parts, ",")
		again := map[string]serve.ClassConfig{}
		if err := parseAdmit(text, again); err != nil {
			t.Fatalf("%q re-formatted as %q does not parse: %v", spec, text, err)
		}
		if len(again) != len(classes) {
			t.Fatalf("%q re-formatted as %q parses to %d classes, want %d", spec, text, len(again), len(classes))
		}
		for name, c := range classes {
			g, ok := again[name]
			// Rates compare by bits, so a NaN rate equals itself.
			if !ok || math.Float64bits(g.Rate) != math.Float64bits(c.Rate) || g.Burst != c.Burst || g.Queue != c.Queue {
				t.Fatalf("%q re-formatted as %q: class %q = %+v, want %+v", spec, text, name, g, c)
			}
		}
	})
}
