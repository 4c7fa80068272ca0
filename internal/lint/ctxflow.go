package lint

// ctxflow: cancellation must flow through the call graph. Library code
// that accepts a context.Context has promised its caller a cancellation
// bound, so handing control to something that blocks — channel traffic,
// store journal appends, HTTP round-trips, child processes — without
// threading the context breaks that promise exactly where it matters
// (the serving daemon's drain path and the shard coordinator's
// supervision loop both found real leaks this way). Two rules:
//
//  1. context.Background()/context.TODO() are banned outside cmd/ —
//     a library function either receives its context or derives one
//     from an injected base, it never mints a fresh root.
//  2. A function that accepts a context must not call a callee that
//     (transitively) blocks but accepts no context. Fork-join
//     spawners are exempt from channel-shaped blocking: collecting
//     your own goroutines over a channel or WaitGroup is bounded by
//     construction, not by cancellation.
//
// Suppression: //opmlint:allow ctxflow — <why> on sites whose blocking
// is the contract (e.g. harvesting child-process exits during kill).

import (
	"go/ast"
	"go/types"
	"strings"
)

var ctxflowCheck = &Check{
	Name: "ctxflow",
	Doc:  "context threads into every blocking callee; Background/TODO banned in library code",
	Applies: func(w *World, p *Package) bool {
		return p.Name != "main" && firstPathSegment(w, p) != "cmd"
	},
	Run: func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if name := fn.Name(); name == "Background" || name == "TODO" {
					pass.Reportf(sel.Pos(),
						"accept a ctx parameter or derive from an injected base context; annotate only process-lifetime roots: //opmlint:allow ctxflow — <why>",
						"context.%s() in library code defeats cancellation", name)
				}
				return true
			})
		}

		a := pass.World.interproc()
		for _, f := range a.order {
			if f.pkg != pass.Pkg || !f.hasCtx {
				continue
			}
			for _, e := range f.edges {
				if e.spawned || sigHasCtx(e.callee) {
					continue
				}
				var why string
				if _, isModule := a.funcs[e.callee]; isModule {
					if _, blocking := a.blockCtx[e.callee]; blocking {
						why = a.blockWhy(a.blockCtx, e.callee)
					}
				} else if w, kind := extBlocking(e.callee); w != "" && kind&seedCtx != 0 {
					if kind&seedChan != 0 && f.hasGo {
						continue // fork-join spawner collecting its own goroutines
					}
					why = w
				}
				if why == "" {
					continue
				}
				pass.Reportf(e.pos,
					"thread the context into the callee, bound the call with a select on ctx.Done(), or annotate: //opmlint:allow ctxflow — <why>",
					"%s accepts a context but calls %s, which %s and accepts none",
					f.fn.Name(), shortFuncName(e.callee), why)
			}
		}
	},
}

// firstPathSegment returns the first module-relative path segment of a
// package ("cmd", "internal", …), or "" for the module root.
func firstPathSegment(w *World, p *Package) string {
	rel := strings.TrimPrefix(p.ImportPath, w.Module)
	rel = strings.TrimPrefix(rel, "/")
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return rel
}
