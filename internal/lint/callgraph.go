package lint

// callgraph.go builds opmlint's interprocedural view of the module: an
// index of every function declaration, a static call graph over direct
// function and method calls, and a blocking-operation classification
// solved to a fixpoint over that graph. Everything here is
// check-independent and built at most once per World (see
// (*World).interproc), so ctxflow, goroleak and lockscope share one
// analysis instead of re-walking the tree per check.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// interproc returns the module-wide interprocedural analyses, built
// lazily on first use and shared by every check of the run (and, via
// the world cache, across runs).
func (w *World) interproc() *ipa {
	w.ipaOnce.Do(func() { w.ipaVal = buildIPA(w) })
	return w.ipaVal
}

// ipa is the interprocedural analysis state for one World.
type ipa struct {
	// funcs indexes every module function or method that has a body.
	funcs map[*types.Func]*ipaFunc
	// order lists the same functions deterministically: by package
	// import path, then file, then declaration order.
	order []*ipaFunc

	// blockCtx classifies functions that can block in ways a context
	// should bound (ctxflow's notion); blockLock adds file I/O
	// (lockscope's notion: anything slow enough to matter under a
	// mutex). Both map a function to its earliest evidence.
	blockCtx  map[*types.Func]blockCause
	blockLock map[*types.Func]blockCause
}

// ipaFunc is one module function declaration plus its analysis facts.
type ipaFunc struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	// hasCtx: the signature accepts a context.Context.
	hasCtx bool
	// hasGo: the body lexically contains a go statement. Such
	// functions get the fork-join exemption: their own channel traffic
	// is how they collect their goroutines, not unbounded blocking.
	hasGo bool
	edges []ipaEdge
	seeds []seedOp
}

// ipaEdge is one outgoing call-graph edge.
type ipaEdge struct {
	callee *types.Func
	pos    token.Pos
	// spawned: the edge sits inside a go statement (directly, or in a
	// go-spawned function literal) — the callee runs on another
	// goroutine and does not block this function.
	spawned bool
}

// seedKind says which blocking flavors a seed feeds, plus whether it
// is channel-shaped (the fork-join exemption applies to those).
type seedKind uint8

const (
	seedCtx  seedKind = 1 << iota // ctxflow: a context should bound it
	seedLock                      // lockscope: too slow under a mutex
	seedChan                      // channel-shaped: fork-join exempt
)

// seedOp is one directly-blocking operation observed in a body.
type seedOp struct {
	pos  token.Pos
	why  string
	kind seedKind
}

// blockCause is the earliest evidence that a function blocks: either a
// direct seed (why) or a call to a blocking module function (via).
type blockCause struct {
	pos token.Pos
	why string
	via *types.Func
}

// ---------------------------------------------------------------------
// builder

func buildIPA(w *World) *ipa {
	a := &ipa{funcs: map[*types.Func]*ipaFunc{}}
	for _, ppath := range sortedPkgPaths(w) {
		p := w.Pkgs[ppath]
		if p.Info == nil {
			continue
		}
		for _, file := range p.Files {
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f := &ipaFunc{fn: obj, pkg: p, decl: fd, hasCtx: sigHasCtx(obj)}
				a.funcs[obj] = f
				a.order = append(a.order, f)
			}
		}
	}
	for _, f := range a.order {
		a.scan(f, f.decl.Body, false, false)
		a.identitySeeds(f)
	}
	a.blockCtx = a.solveBlocking(seedCtx)
	a.blockLock = a.solveBlocking(seedLock)
	return a
}

func sortedPkgPaths(w *World) []string {
	paths := make([]string, 0, len(w.Pkgs))
	for p := range w.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// scan walks one function body recording call edges and
// directly-blocking seed operations. spawned marks go-spawned code
// (runs on another goroutine, so its operations do not block this
// function); noChan suppresses the seed for a channel operand that is
// a select communication clause (the select itself is the seed).
func (a *ipa) scan(f *ipaFunc, n ast.Node, spawned, noChan bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		f.hasGo = true
		if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
			for _, arg := range n.Call.Args {
				a.scan(f, arg, spawned, false)
			}
			a.scan(f, lit.Body, true, false)
			return
		}
		a.scanCall(f, n.Call, spawned, true)
	case *ast.DeferStmt:
		a.scanCall(f, n.Call, spawned, false)
	case *ast.CallExpr:
		a.scanCall(f, n, spawned, false)
	case *ast.FuncLit:
		a.scan(f, n.Body, spawned, false)
	case *ast.SendStmt:
		if !noChan && !spawned {
			f.seeds = append(f.seeds, seedOp{pos: n.Arrow, why: "sends on a channel", kind: seedCtx | seedLock | seedChan})
		}
		a.scan(f, n.Chan, spawned, false)
		a.scan(f, n.Value, spawned, false)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !noChan && !spawned {
			f.seeds = append(f.seeds, seedOp{pos: n.OpPos, why: "receives from a channel", kind: seedCtx | seedLock | seedChan})
		}
		a.scan(f, n.X, spawned, false)
	case *ast.SelectStmt:
		if !spawned && !selectGuarded(f.pkg.Info, n) {
			f.seeds = append(f.seeds, seedOp{pos: n.Select, why: "waits in a select with no default or <-ctx.Done() case", kind: seedCtx | seedLock | seedChan})
		}
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CommClause)
			a.scan(f, cc.Comm, spawned, true)
			for _, s := range cc.Body {
				a.scan(f, s, spawned, false)
			}
		}
	case *ast.ExprStmt:
		a.scan(f, n.X, spawned, noChan)
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			a.scan(f, r, spawned, noChan)
		}
		for _, l := range n.Lhs {
			a.scan(f, l, spawned, false)
		}
	default:
		for _, c := range directChildren(n) {
			a.scan(f, c, spawned, noChan)
		}
	}
}

// scanCall records the edge for one call expression and scans its
// operands. goStmt marks `go f(...)` direct spawns.
func (a *ipa) scanCall(f *ipaFunc, call *ast.CallExpr, spawned, goStmt bool) {
	callee := staticCallee(f.pkg.Info, call)
	if callee != nil {
		f.edges = append(f.edges, ipaEdge{callee: callee, pos: call.Pos(), spawned: spawned || goStmt})
		if !spawned && !goStmt {
			if why, kind := extBlocking(callee); why != "" {
				f.seeds = append(f.seeds, seedOp{
					pos:  call.Pos(),
					why:  "calls " + shortFuncName(callee) + ", which " + why,
					kind: kind,
				})
			}
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			a.scan(f, sel.X, spawned, false)
		}
	} else {
		a.scan(f, call.Fun, spawned || goStmt, false)
	}
	for _, arg := range call.Args {
		a.scan(f, arg, spawned, false)
	}
}

// identitySeeds marks module functions that block by contract rather
// than by anything visible in their bodies.
func (a *ipa) identitySeeds(f *ipaFunc) {
	// The store journal append is a synchronous disk write: a context
	// should bound reaching it, and no mutex should be held across it.
	if f.fn.Name() == "Put" && recvTypeName(f.fn) == "Store" &&
		path.Base(f.pkg.ImportPath) == "store" && !strings.Contains(f.pkg.ImportPath, "testdata") {
		f.seeds = append(f.seeds, seedOp{pos: f.decl.Pos(), why: "appends to the store journal", kind: seedCtx | seedLock})
	}
}

// extBlocking classifies calls into non-module packages that block.
// The why reads after "which ". Channel-shaped waits (WaitGroup.Wait)
// carry seedChan so fork-join spawners are exempt from them.
func extBlocking(fn *types.Func) (why string, kind seedKind) {
	if fn.Pkg() == nil {
		return "", 0
	}
	name := fn.Name()
	recv := recvTypeName(fn)
	switch fn.Pkg().Path() {
	case "time":
		if recv == "" && name == "Sleep" {
			return "sleeps", seedCtx | seedLock
		}
	case "sync":
		if recv == "WaitGroup" && name == "Wait" {
			return "waits on a WaitGroup", seedCtx | seedLock | seedChan
		}
	case "net/http":
		switch recv {
		case "", "Client":
			// (*http.Client).Do is exempt: its request carries the context.
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return "performs an HTTP round-trip", seedCtx | seedLock
			}
		case "Server":
			switch name {
			case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
				return "serves HTTP until shutdown", seedCtx | seedLock
			}
		}
	case "os/exec":
		if recv == "Cmd" {
			switch name {
			case "Run", "Wait", "Output", "CombinedOutput":
				return "waits on a child process", seedCtx | seedLock
			}
		}
	case "os":
		if recv == "File" {
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Truncate":
				return "does file I/O", seedLock
			}
		}
		if recv == "" {
			switch name {
			case "ReadFile", "WriteFile", "Create", "Open", "OpenFile",
				"Rename", "Remove", "RemoveAll", "MkdirAll", "ReadDir":
				return "does file I/O", seedLock
			}
		}
	}
	return "", 0
}

// selectGuarded reports whether a select cannot block indefinitely
// without a cancellation path: it has a default case or receives from
// a context's Done channel.
func selectGuarded(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default case
		}
		var x ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			x = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				x = c.Rhs[0]
			}
		}
		u, ok := unparen(x).(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			continue
		}
		call, ok := unparen(u.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		if done := staticCallee(info, call); done != nil && done.Name() == "Done" {
			if sig, ok := done.Type().(*types.Signature); ok && sig.Recv() != nil && isContextType(sig.Recv().Type()) {
				return true
			}
		}
	}
	return false
}

// solveBlocking computes the blocking set for one flavor to a fixpoint
// over call edges, then assigns each member its earliest evidence so
// messages are deterministic regardless of solve order.
func (a *ipa) solveBlocking(flavor seedKind) map[*types.Func]blockCause {
	forkJoinExempt := func(f *ipaFunc, kind seedKind) bool {
		return flavor&seedCtx != 0 && kind&seedChan != 0 && f.hasGo
	}
	in := map[*types.Func]bool{}
	for _, f := range a.order {
		for _, s := range f.seeds {
			if s.kind&flavor != 0 && !forkJoinExempt(f, s.kind) {
				in[f.fn] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range a.order {
			if in[f.fn] {
				continue
			}
			for _, e := range f.edges {
				if !e.spawned && in[e.callee] {
					in[f.fn] = true
					changed = true
					break
				}
			}
		}
	}
	out := map[*types.Func]blockCause{}
	for _, f := range a.order {
		if !in[f.fn] {
			continue
		}
		var best blockCause
		consider := func(c blockCause) {
			if best.pos == token.NoPos || c.pos < best.pos {
				best = c
			}
		}
		for _, s := range f.seeds {
			if s.kind&flavor != 0 && !forkJoinExempt(f, s.kind) {
				consider(blockCause{pos: s.pos, why: s.why})
			}
		}
		for _, e := range f.edges {
			if !e.spawned && in[e.callee] {
				consider(blockCause{pos: e.pos, via: e.callee})
			}
		}
		out[f.fn] = best
	}
	return out
}

// blockWhy renders why fn blocks, following inherited causes through
// at most three call hops (which also bounds recursion cycles).
func (a *ipa) blockWhy(m map[*types.Func]blockCause, fn *types.Func) string {
	var sb strings.Builder
	cur := fn
	for hop := 0; ; hop++ {
		c, ok := m[cur]
		if !ok {
			sb.WriteString("blocks")
			return sb.String()
		}
		if c.via == nil {
			sb.WriteString(c.why)
			return sb.String()
		}
		if hop == 3 {
			sb.WriteString("blocks transitively")
			return sb.String()
		}
		fmt.Fprintf(&sb, "calls %s, which ", shortFuncName(c.via))
		cur = c.via
	}
}

// ---------------------------------------------------------------------
// shared helpers

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves a call to its declared function or method, or
// nil for dynamic calls (function values, function-literal calls),
// conversions and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func sigHasCtx(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// shortFuncName renders pkg.(*Recv).Name for messages: the package's
// last path segment keeps fixture goldens independent of module paths.
func shortFuncName(f *types.Func) string {
	var sb strings.Builder
	if f.Pkg() != nil {
		sb.WriteString(path.Base(f.Pkg().Path()))
		sb.WriteByte('.')
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		switch n := t.(type) {
		case *types.Named:
			fmt.Fprintf(&sb, "(%s%s).", star, n.Obj().Name())
		case *types.Interface:
			sb.WriteString("(interface).")
		}
	}
	sb.WriteString(f.Name())
	return sb.String()
}

// directChildren returns a node's immediate children, for generic
// descent with explicit state.
func directChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}
