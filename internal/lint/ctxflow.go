package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context plumbing discipline: a context.Context is only
// worth carrying if it reaches a callee from the caller that can cancel
// it (a cmd/ entry point, a test), and that chain only works if every
// layer passes the same context along instead of minting a fresh root.
// No analysis entry point takes a context today — nothing cancels one —
// so the rule keeps any context added later honest rather than guarding
// a live cancellation path.
//
// Flagged:
//
//   - a function whose context.Context parameter is not the first
//     parameter (the convention every callee relies on),
//   - a named context.Context parameter the function never uses: the
//     context is accepted but not threaded to callees, silently breaking
//     cancellation below that frame (rename it _ if the signature is
//     fixed by an interface),
//   - context.Background() or context.TODO() in internal/ packages
//     outside internal/pipeline: a fresh root context detaches the
//     callee from cancellation. Roots belong in cmd/ entry points and
//     tests; internal/pipeline is exempt as the one sanctioned
//     root (its stage runner labels CPU profiles under pprof.Do,
//     which needs a context).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "ctx is the first parameter, threaded to callees; no context roots outside cmd/",
	Run:  runCtxFlow,
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "context" && n.Obj().Name() == "Context"
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	internal := moduleInternal(pass.Pkg)
	pipelinePkg := pass.Pkg.Path == pass.Pkg.Module+"/internal/pipeline"
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxParams(pass, n)
			case *ast.SelectorExpr:
				if !internal || pipelinePkg {
					return true
				}
				fn, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || funcPkgPath(fn) != "context" {
					return true
				}
				if name := fn.Name(); name == "Background" || name == "TODO" {
					pass.Reportf(n.Pos(), "context.%s creates a detached root context in an internal package; accept a ctx parameter and thread it through (roots belong in cmd/)", name)
				}
			}
			return true
		})
	}
}

// checkCtxParams verifies position and use of a declared function's
// context parameters.
func checkCtxParams(pass *Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	params := decl.Type.Params
	if params == nil {
		return
	}
	idx := 0
	for _, f := range params.List {
		t := info.TypeOf(f.Type)
		names := len(f.Names)
		if names == 0 {
			names = 1
		}
		if isContextType(t) {
			if idx != 0 {
				pass.Reportf(f.Type.Pos(), "context.Context is parameter %d of %s; make ctx the first parameter", idx, decl.Name.Name)
			}
			for _, name := range f.Names {
				if name.Name == "_" {
					continue
				}
				obj := info.Defs[name]
				if obj != nil && decl.Body != nil && !identUsed(info, decl.Body, obj) {
					pass.Reportf(name.Pos(), "%s accepts ctx but never uses it, so cancellation stops here; thread it to callees or rename it _", decl.Name.Name)
				}
			}
		}
		idx += names
	}
}

// identUsed reports whether any identifier in body resolves to obj.
func identUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
