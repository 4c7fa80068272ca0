package lint

// lockscope: no blocking operation while a sync.Mutex/RWMutex is held.
// A lock held across channel traffic, file or journal I/O, an HTTP
// round-trip or a child-process wait turns every other contender into
// a convoy behind that latency — in the serving daemon that is a tail
// spike. The walk is cfg.go's symbolic execution of each body; what
// counts as blocking is the interprocedural lockscope classification
// (ctxflow's set plus file I/O), so a call into a helper that
// eventually writes the journal is flagged at the call site under the
// lock.
//
// Suppression: //opmlint:allow lockscope — <why> where the mutex IS
// the serialization point by design (the store's single-writer
// journal lock is the canonical case).

import "go/token"

var lockscopeCheck = &Check{
	Name: "lockscope",
	Doc:  "no blocking operation (channel, file/journal I/O, HTTP, process wait) under a held mutex",
	Run: func(pass *Pass) {
		a := pass.World.interproc()
		for _, f := range a.order {
			if f.pkg != pass.Pkg {
				continue
			}
			lw := &lockWalker{pass: pass, a: a, held: map[string]token.Pos{}}
			lw.stmt(f.decl.Body)
			// Function literals run on their own schedule: empty held set.
			for len(lw.lits) > 0 {
				lit := lw.lits[0]
				lw.lits = lw.lits[1:]
				inner := &lockWalker{pass: pass, a: a, held: map[string]token.Pos{}}
				inner.stmt(lit.Body)
				lw.lits = append(lw.lits, inner.lits...)
			}
		}
	},
}
