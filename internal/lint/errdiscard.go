package lint

// errdiscard: the store, faultinject and serve packages may never
// drop an error on the floor. The journal is the single source of
// truth for cached results — a swallowed write or fsync error there
// turns "crash-safe checkpoint" into silent data loss, the fault
// injector's whole job is to prove errors propagate, and the serving
// daemon sits on the journal's write path (a dropped commit error
// would quietly un-persist an answered query). Flagged forms:
// a call statement whose (last) result is an error, and a blank `_`
// assignment of an error-typed value. Exempt by contract: writes to
// strings.Builder, bytes.Buffer and hash.Hash* (defined to never
// fail) and `defer f.Close()` on read paths (the deferred-close
// idiom). Everything else either handles the error or carries an
// //opmlint:allow errdiscard annotation saying why losing it is safe.

import (
	"go/ast"
	"go/types"
	"strings"
)

var errdiscardCheck = &Check{
	Name: "errdiscard",
	Doc:  "no discarded errors in store/faultinject/serve (journal write paths)",
	Applies: func(w *World, p *Package) bool {
		for _, seg := range strings.Split(p.ImportPath, "/") {
			if seg == "store" || seg == "faultinject" || seg == "serve" {
				return true
			}
		}
		return false
	},
	Run: func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.ExprStmt:
					call, ok := s.X.(*ast.CallExpr)
					if !ok || !callReturnsError(info, call) || neverFails(info, call) {
						return true
					}
					pass.Reportf(s.Pos(),
						"handle or return the error, or annotate: //opmlint:allow errdiscard — <why losing it is safe>",
						"call discards its error result")
				case *ast.AssignStmt:
					checkBlankErrAssign(pass, s)
				}
				return true
			})
		}
	},
}

// checkBlankErrAssign flags `_` receiving an error-typed value.
func checkBlankErrAssign(pass *Pass, s *ast.AssignStmt) {
	info := pass.Pkg.Info
	report := func(pos ast.Node) {
		pass.Reportf(pos.Pos(),
			"name the error and handle it, or annotate: //opmlint:allow errdiscard — <why losing it is safe>",
			"error discarded into blank identifier")
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || neverFails(info, call) {
			return
		}
		tuple, ok := info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				report(s)
				return
			}
		}
		return
	}
	if len(s.Rhs) != len(s.Lhs) {
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) {
			continue
		}
		t := info.Types[s.Rhs[i]].Type
		if t == nil || !isErrorType(t) {
			continue
		}
		if call, ok := s.Rhs[i].(*ast.CallExpr); ok && neverFails(info, call) {
			continue
		}
		report(s)
		return
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// callReturnsError reports whether any result of call is an error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.Types[call].Type
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// neverFailTypes are receivers whose Write-family methods are defined
// to never return a non-nil error.
var neverFailTypes = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
	"hash.Hash32":     true,
	"hash.Hash64":     true,
}

// neverFails reports whether call only writes to a by-contract
// infallible writer: a method on strings.Builder, bytes.Buffer or
// hash.Hash*, or a fmt.Fprint*/io.WriteString whose destination is
// one of those.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			viaFmt := fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") ||
				fn.Pkg().Path() == "io" && fn.Name() == "WriteString"
			return viaFmt && len(call.Args) > 0 && isNeverFailType(info.Types[call.Args[0]].Type)
		}
	}
	return isNeverFailType(info.Types[sel.X].Type)
}

func isNeverFailType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return neverFailTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}
