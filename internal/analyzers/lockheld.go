package analyzers

import (
	"go/ast"
	"go/types"
)

// dpEntryPoints lists the DP/kernel entry points that must never run
// while an exclusive mutex is held: they are O(n·m) per call, so holding
// a lock across them serializes every reader behind the slowest DP. The
// sanctioned patterns (internal/shard) are copy-on-write snapshots or an
// RLock: searches share the lock, only mutation excludes.
var dpEntryPoints = map[string]map[string]bool{
	"sdtw/internal/dtw": {
		"Distance":         true,
		"DistanceWithPath": true,
		"Banded":           true,
		"BandedWS":         true,
		"BandedAbandonWS":  true,
		"BandedAbandonCtx": true,
		"BandedWithPath":   true,
		"Subsequence":      true,
	},
	"sdtw/internal/lower": {
		"Kim":         true,
		"Keogh":       true,
		"KeoghUnder":  true,
		"NewEnvelope": true,
	},
	"sdtw/internal/core": {
		"Distance":         true,
		"DistanceUnder":    true,
		"DistanceUnderCtx": true,
	},
	"sdtw/internal/retrieve": {
		"Search":      true,
		"SearchBatch": true,
	},
}

// Lockheld flags calls into DP/kernel entry points made while a
// sync.Mutex or the write half of a sync.RWMutex is held. RLock regions
// are exempt: concurrent readers may run the DP (the retrieve.Core
// pattern); exclusive regions must not (the internal/shard COW
// discipline).
var Lockheld = &Analyzer{
	Name: "lockheld",
	Doc: "flag calls into DP/kernel functions while a sync.Mutex/RWMutex is " +
		"exclusively locked (searches belong under COW snapshots or RLock)",
	Run: runLockheld,
}

func runLockheld(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			pass.checkLockRegions(block)
			return true
		})
	}
	return nil
}

// checkLockRegions scans one statement list for mu.Lock() calls and
// flags DP calls between the Lock and the matching same-level
// mu.Unlock(); with `defer mu.Unlock()` (or no explicit unlock) the
// region extends to the end of the block.
func (p *Pass) checkLockRegions(block *ast.BlockStmt) {
	for i, stmt := range block.List {
		key, ok := p.syncMethodCall(stmt, "Lock")
		if !ok {
			continue
		}
		end := len(block.List)
		for j := i + 1; j < len(block.List); j++ {
			if ukey, ok := p.syncMethodCall(block.List[j], "Unlock"); ok && ukey == key {
				end = j
				break
			}
		}
		for _, held := range block.List[i+1 : end] {
			if _, isDefer := held.(*ast.DeferStmt); isDefer {
				continue
			}
			p.checkDPCalls(held, key)
		}
	}
}

// syncMethodCall reports whether stmt is an expression statement calling
// sync.(*Mutex).name or sync.(*RWMutex).name, returning the printed
// receiver expression as the region key.
func (p *Pass) syncMethodCall(stmt ast.Stmt, name string) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	named := namedOf(recv.Type())
	if named == nil || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", false
	}
	return exprString(sel.X), true
}

// checkDPCalls flags every DP entry-point call in the subtree of stmt.
func (p *Pass) checkDPCalls(stmt ast.Stmt, lockKey string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // deferred/spawned closures run outside the region
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := p.calleeObj(call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if set, ok := dpEntryPoints[basePath(fn.Pkg().Path())]; ok && set[fn.Name()] {
			p.Reportf(call.Pos(),
				"%s.%s (O(n·m) DP/kernel work) called while %q is exclusively locked; run it under a COW snapshot or RLock, or release the lock first",
				fn.Pkg().Name(), fn.Name(), lockKey)
		}
		return true
	})
}
