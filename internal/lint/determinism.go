package lint

// determinism: library code must not read the wall clock or draw from
// the process-global math/rand source. Every published result depends
// on bit-determinism — the warm==cold store equivalence, the
// traced==untraced byte-identity suite and the parallel==sequential
// sweep tests all compare exact bytes — so the model packages (memsim, cache, core,
// sparse, stepping, roofline, platform, trace, kernels) and everything
// they can reach must compute the same values on every run. Clock use
// is the obs layer's privilege, and even there every read carries an
// //opmlint:allow annotation explaining why the value can never feed
// back into simulated results. Seeded generators
// (rand.New(rand.NewPCG(...))) are always fine; the global source
// never is. cmd/ and example binaries are exempt: their timing is
// operator-facing by definition.

import (
	"go/ast"
	"go/types"
)

// seededRandCtor lists the math/rand[/v2] package functions that build
// explicitly seeded state rather than touching the global source.
var seededRandCtor = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewSource":  true,
	"NewZipf":    true,
}

var determinismCheck = &Check{
	Name: "determinism",
	Doc:  "no time.Now/Since/Until or global-source math/rand in library code",
	Applies: func(w *World, p *Package) bool {
		return p.Name != "main"
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
				if !ok || fn.Pkg() == nil {
					return true
				}
				name := fn.Name()
				switch fn.Pkg().Path() {
				case "time":
					if name == "Now" || name == "Since" || name == "Until" {
						pass.Reportf(sel.Pos(),
							"timing is the obs layer's privilege; if this value can never feed simulated results, annotate: //opmlint:allow determinism — <why>",
							"wall-clock read time.%s in library code breaks bit-determinism", name)
					}
				case "math/rand", "math/rand/v2":
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() != nil {
						return true // method on an explicitly seeded *rand.Rand
					}
					if !seededRandCtor[name] {
						pass.Reportf(sel.Pos(),
							"draw from an explicitly seeded rand.New(rand.NewPCG(seed, ...)) instead",
							"global-source rand.%s is unseeded and run-dependent", name)
					}
				}
				return true
			})
		}
	},
}
