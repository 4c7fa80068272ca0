package lint

// rangesort: map-iteration order must never reach report output. The
// repo's reports, CSVs and findings are compared byte-for-byte by the
// parallel==sequential, warm==cold and traced==untraced suites, and
// PR 4 hand-fixed exactly this flake in harness.curveCSV (series rows
// emitted in map order differed run to run). The check flags a
// `for range` over a map when:
//
//   - the body appends to a slice the enclosing function returns,
//     unless that slice is also passed to a sort call — the canonical
//     collect-keys-then-sort idiom stays clean;
//   - the body writes to an io.Writer (fmt.Fprint*, io.WriteString,
//     or a Write/WriteString/WriteByte/WriteRune method on anything
//     implementing io.Writer);
//   - the ranged expression is an inline map literal — consuming a
//     literal in iteration order is always better written as a slice.
//
// Ranges that only aggregate (sums, max, filling another map) are
// order-independent and never flagged.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var rangesortCheck = &Check{
	Name: "rangesort",
	Doc:  "no map iteration whose order can reach returned slices or writers",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						checkFuncRanges(pass, fn.Type, fn.Body)
					}
				case *ast.FuncLit:
					checkFuncRanges(pass, fn.Type, fn.Body)
				}
				return true
			})
		}
	},
}

// walkShallow visits n without descending into nested function
// literals, so each function's statements are attributed to exactly
// one ownership analysis.
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// checkFuncRanges analyzes one function body for order-leaking map
// ranges.
func checkFuncRanges(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	// returned: objects of named results and of identifiers that
	// appear directly in a return statement.
	returned := map[types.Object]bool{}
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	// sorted: objects handed to a sort.*/slices.Sort* call anywhere in
	// the function — the collect-then-sort idiom.
	sorted := map[types.Object]bool{}
	walkShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if id, ok := res.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if len(s.Args) == 0 {
				return true
			}
			sel, ok := s.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			pkg, name := fn.Pkg().Path(), fn.Name()
			if (pkg == "sort" || pkg == "slices") && strings.HasPrefix(name, "Sort") ||
				pkg == "sort" && (name == "Strings" || name == "Ints" || name == "Float64s" || name == "Stable" || name == "Slice" || name == "SliceStable") {
				if id, ok := s.Args[0].(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						sorted[obj] = true
					}
				}
			}
		}
		return true
	})
	walkShallow(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if _, ok := ast.Unparen(rng.X).(*ast.CompositeLit); ok {
			pass.Reportf(rng.Pos(),
				"iterate a sorted or explicitly ordered slice instead",
				"range over an inline map literal visits entries in random order")
			return true
		}
		checkRangeBody(pass, rng, returned, sorted)
		return true
	})
}

// checkRangeBody flags the first order-leaking statement in one
// map-range body.
func checkRangeBody(pass *Pass, rng *ast.RangeStmt, returned, sorted map[types.Object]bool) {
	info := pass.Pkg.Info
	done := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) != len(s.Lhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if obj != nil && returned[obj] && !sorted[obj] {
					done = true
					pass.Reportf(s.Pos(),
						"collect into a slice, sort it, then build the result — see harness.curveCSV",
						"appends to returned slice %q in map-iteration order", id.Name)
					return false
				}
			}
		case *ast.CallExpr:
			if pos, what := writerWrite(pass, s); what != "" {
				done = true
				pass.Reportf(pos,
					"buffer per key and emit in sorted-key order instead",
					"%s inside a map range leaks iteration order into output", what)
				return false
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// writerWrite reports whether call writes to an io.Writer, returning
// a short description of the call for the finding.
func writerWrite(pass *Pass, call *ast.CallExpr) (token.Pos, string) {
	info := pass.Pkg.Info
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return token.NoPos, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return token.NoPos, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return token.NoPos, ""
	}
	if fn.Pkg() != nil && sig.Recv() == nil {
		switch {
		case fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"):
			return call.Pos(), "fmt." + fn.Name()
		case fn.Pkg().Path() == "io" && fn.Name() == "WriteString":
			return call.Pos(), "io.WriteString"
		}
		return token.NoPos, ""
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return token.NoPos, ""
	}
	recv := info.Types[sel.X].Type
	if recv == nil || !implementsWriter(recv) {
		return token.NoPos, ""
	}
	return call.Pos(), fn.Name() + " on an io.Writer"
}

// writerIface is a synthesized io.Writer, so the check needs no
// dependency on having loaded package io.
var writerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	iface := types.NewInterfaceType(
		[]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

func implementsWriter(t types.Type) bool {
	if types.Implements(t, writerIface) {
		return true
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	return types.Implements(types.NewPointer(t), writerIface)
}
