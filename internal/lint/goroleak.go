package lint

// goroleak: every goroutine spawned in internal/ must have a provable
// bounded exit. A leaked goroutine is invisible until a drain hangs or
// a test binary never exits — the serve daemon's async sweep jobs are
// the motivating case. Accepted proofs, checked on the spawned body (a
// function literal or a resolved module function):
//
//   - no unbounded loop at all (the body runs to its return);
//   - every unconditional for-loop returns or breaks somewhere (the
//     usual shape: for { select { case <-ctx.Done(): return … } });
//   - a for-range over a channel some close() in the same package can
//     reach (worker pools draining a closed queue);
//   - the spawn is WaitGroup-covered: the spawner Adds, the body
//     Dones, and the package Waits — the spawner provably joins it.
//
// Bodies that are not module functions (e.g. go srv.Serve(ln)) cannot
// be proven and must carry an //opmlint:allow goroleak — <why>.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var goroleakCheck = &Check{
	Name: "goroleak",
	Doc:  "every go statement in internal/ has a provable bounded exit",
	Applies: func(w *World, p *Package) bool {
		return firstPathSegment(w, p) == "internal"
	},
	Run: func(pass *Pass) {
		a := pass.World.interproc()
		closedElems := map[*Package][]types.Type{}
		for _, f := range a.order {
			if f.pkg != pass.Pkg {
				continue
			}
			spawner := f
			ast.Inspect(f.decl.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, a, spawner, g, closedElems)
				return true
			})
		}
	},
}

func checkGoStmt(pass *Pass, a *ipa, spawner *ipaFunc, g *ast.GoStmt, closedElems map[*Package][]types.Type) {
	var body *ast.BlockStmt
	bodyPkg := pass.Pkg
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if callee := staticCallee(pass.Pkg.Info, g.Call); callee != nil {
		cf, ok := a.funcs[callee]
		if !ok {
			pass.Reportf(g.Pos(),
				"a goroutine running foreign code cannot be proven to exit; annotate: //opmlint:allow goroleak — <why>",
				"goroutine body %s is not a module function; bounded exit cannot be proven", shortFuncName(callee))
			return
		}
		body, bodyPkg = cf.decl.Body, cf.pkg
	} else {
		pass.Reportf(g.Pos(),
			"a dynamic goroutine body cannot be proven to exit; annotate: //opmlint:allow goroleak — <why>",
			"goroutine body is a dynamic function value; bounded exit cannot be proven")
		return
	}

	if wgCovered(pass.Pkg.Info, spawner.decl, body, bodyPkg) {
		return
	}
	detail := unboundedLoop(bodyPkg, body, closedElems)
	if detail == "" {
		return
	}
	pass.Reportf(g.Pos(),
		"exit on <-ctx.Done() or a closed channel, cover the spawn with a WaitGroup the spawner waits on, or annotate: //opmlint:allow goroleak — <why>",
		"goroutine has no provable bounded exit: %s", detail)
}

// unboundedLoop scans body (nested function literals excluded) for a
// loop with no provable exit and describes the first one found.
func unboundedLoop(pkg *Package, body *ast.BlockStmt, closedElems map[*Package][]types.Type) string {
	bad := ""
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || bad != "" {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt:
			if n.Cond == nil && !loopHasExit(n.Body) {
				bad = "unconditional for-loop never returns or breaks"
				return
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if ch, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if !loopHasExit(n.Body) && !chanClosedInPkg(pkg, ch.Elem(), closedElems) {
						bad = "ranges over a channel that no close() in its package can reach"
						return
					}
				}
			}
		}
		for _, c := range directChildren(n) {
			walk(c)
		}
	}
	walk(body)
	return bad
}

// loopHasExit reports whether a loop body contains a return, or a
// break that targets this loop (unlabeled at loop depth, or any
// labeled break). Nested function literals are skipped.
func loopHasExit(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && (breakable || n.Label != nil) {
				found = true
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// An unlabeled break inside these targets them, not our loop.
			for _, c := range directChildren(n) {
				walk(c, false)
			}
			return
		}
		for _, c := range directChildren(n) {
			walk(c, breakable)
		}
	}
	walk(body, true)
	return found
}

// chanClosedInPkg reports whether pkg contains close(ch) on a channel
// whose element type matches elem — the drain signal a for-range over
// a channel exits on.
func chanClosedInPkg(pkg *Package, elem types.Type, closedElems map[*Package][]types.Type) bool {
	elems, ok := closedElems[pkg]
	if !ok {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall || len(call.Args) != 1 {
					return true
				}
				id, isIdent := unparen(call.Fun).(*ast.Ident)
				if !isIdent {
					return true
				}
				if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "close" {
					return true
				}
				if tv, okT := pkg.Info.Types[call.Args[0]]; okT {
					if ch, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						elems = append(elems, ch.Elem())
					}
				}
				return true
			})
		}
		closedElems[pkg] = elems
	}
	for _, e := range elems {
		if types.Identical(e, elem) {
			return true
		}
	}
	return false
}

// wgCovered reports the WaitGroup proof: the spawner Adds, the body
// Dones, and the body's package Waits.
func wgCovered(info *types.Info, spawnerDecl *ast.FuncDecl, body *ast.BlockStmt, bodyPkg *Package) bool {
	if !hasWGCall(info, spawnerDecl, "Add") || !hasWGCall(bodyPkg.Info, body, "Done") {
		return false
	}
	for _, f := range bodyPkg.Files {
		if hasWGCall(bodyPkg.Info, f.AST, "Wait") {
			return true
		}
	}
	return false
}

func hasWGCall(info *types.Info, root ast.Node, name string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn != nil && fn.Name() == name && recvTypeName(fn) == "WaitGroup" &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			found = true
		}
		return true
	})
	return found
}
