package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeamContract machine-checks the admission seam between the path hunters
// (internal/route) and the evaluation core (internal/core), an invariant
// first established by convention: edge admission goes through
// graph.SlotAdmits or the shared traversal bytes. Reading a fault mask
// directly — indexing a []bool whose name marks it as a vertex/edge
// admission mask (vertexOK, edgeOK, usable) or indexing a []fault.State —
// re-derives admission locally and silently forks the rule the path
// hunters must share. Writes are the
// mask maintainers' job and are exempt; the handful of audited readers
// (the reference slow-path BFS, the incremental mask maintainer itself)
// carry //ftlint:ignore seamcontract suppressions that double as the
// reader registry.
var SeamContract = &Analyzer{
	Name: "seamcontract",
	Doc:  "forbids direct fault-mask admission reads in route/core",
	Run:  runSeamContract,
}

// maskNames are the identifier names (lowercased) that mark a []bool as
// an admission mask.
var maskNames = map[string]bool{"vertexok": true, "edgeok": true, "usable": true}

func runSeamContract(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Index expressions on the left of an assignment are writes,
			// not admission reads; pre-order traversal sees the
			// AssignStmt before its operands, so collect them as we go.
			writes := map[ast.Expr]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[unparen(lhs)] = true
					}
				case *ast.IndexExpr:
					if !writes[n] {
						checkMaskRead(pass, n)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkMaskRead flags ix when it reads an admission mask directly: a
// []bool named like a mask, or any []fault.State.
func checkMaskRead(pass *Pass, ix *ast.IndexExpr) {
	t := pass.TypesInfo.TypeOf(ix.X)
	if t == nil {
		return
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return
	}
	if named, ok := slice.Elem().(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "State" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/fault") {
			pass.Reportf(ix.Pos(),
				"direct []fault.State read re-derives admission; go through graph.SlotAdmits or the shared traversal bytes")
		}
		return
	}
	if b, ok := slice.Elem().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return
	}
	if maskNames[strings.ToLower(baseName(ix.X))] {
		pass.Reportf(ix.Pos(),
			"direct admission-mask read (%s); go through graph.SlotAdmits or the shared traversal bytes",
			types.ExprString(ix.X))
	}
}

// baseName returns the last identifier of an expression chain:
// rt.vertexOK → "vertexOK", usable → "usable".
func baseName(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
