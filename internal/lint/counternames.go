package lint

// counternames: every obs instrument, span, and trace-event name must
// be a compile-time string constant matching [a-z0-9_/]+. The chaos
// gate in scripts/check.sh greps for literal counter names
// (store/torn_writes, store/write_repairs), dashboards key on exact
// strings, opmprof's phase attribution switches on the Ev* trace-event
// constants, and the README documents the full instrument namespace —
// a dynamically assembled name can silently escape all four. Constant
// folding is honored: "store/" + suffixConst is fine as long as the
// result is a compile-time constant; names built from variables are
// findings and need an //opmlint:allow annotation naming the closed
// set the parts come from.

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// instrumentMethods maps each checked obs function to the index of its
// name argument: registry instruments and spans take the name first;
// the tracer's Emit and the context helpers TraceEvent/TraceEventDur
// take it after the trace ID / context.
var instrumentMethods = map[string]int{
	"Counter":       0,
	"Gauge":         0,
	"Histogram":     0,
	"StartSpan":     0,
	"Emit":          1,
	"TraceEvent":    1,
	"TraceEventDur": 1,
}

var counterNameRE = regexp.MustCompile(`^[a-z0-9_/]+$`)

var counternamesCheck = &Check{
	Name: "counternames",
	Doc:  "obs instrument, span and trace-event names are grep-able constants matching [a-z0-9_/]+",
	Run: func(pass *Pass) {
		info := pass.Pkg.Info
		obsPath := pass.World.Module + "/internal/obs"
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
					return true
				}
				argIdx, checked := instrumentMethods[fn.Name()]
				if !checked || len(call.Args) <= argIdx {
					return true
				}
				arg := call.Args[argIdx]
				tv := info.Types[arg]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(),
						"use a literal (or constant-folded) name, or annotate the closed set it comes from: //opmlint:allow counternames — <why>",
						"dynamically built %s name cannot be found by grep or dashboards", fn.Name())
					return true
				}
				if name := constant.StringVal(tv.Value); !counterNameRE.MatchString(name) {
					pass.Reportf(arg.Pos(),
						"instrument names use lower-case slash-separated words: [a-z0-9_/]+",
						"%s name %q does not match [a-z0-9_/]+", fn.Name(), name)
				}
				return true
			})
		}
	},
}
