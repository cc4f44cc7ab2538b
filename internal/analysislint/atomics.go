package analysislint

// The atomics rule: the only atomics are typed ones (atomic.Int64,
// atomic.Pointer[T], ...), used through their methods. A plain read or
// arithmetic on a typed atomic does not compile, and copying one is a
// `go vet` copylocks finding, so the rule reports only what both accept:
//
//   - a call to a package-level sync/atomic function (atomic.AddInt64,
//     ...), which makes a plain field atomic at one site and leaves it
//     plain, and racy, at every other;
//   - an `=` assignment to a sync/atomic value (`s.slots = atomic.Int64{}`),
//     which overwrites a shared atomic non-atomically. `:=` declares a
//     fresh, unshared local and is exempt, as are composite-literal keys.

import (
	"go/ast"
	"go/token"
	"go/types"
)

const atomicsRule = "atomics"

func checkAtomics(p *pass) {
	for _, pkg := range p.m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if p.isAtomicFuncCall(n) {
						p.report(n.Pos(), atomicsRule,
							"package-level sync/atomic call; declare the field as a typed atomic (atomic.Int64, atomic.Pointer[T], ...) and use its methods")
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if n.Tok == token.ASSIGN && isAtomicType(p.m.Info.TypeOf(lhs)) {
							p.report(lhs.Pos(), atomicsRule,
								"assignment overwrites a sync/atomic value non-atomically; use its Store or Swap method")
						}
					}
				}
				return true
			})
		}
	}
}

// isAtomicFuncCall reports whether call invokes a package-level function
// of sync/atomic (atomic.LoadInt64, atomic.AddUint64, ...).
func (p *pass) isAtomicFuncCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.m.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// isAtomicType reports whether t is (an instantiation of) a type declared
// in sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
