package lint

import (
	"go/ast"
	"go/types"
)

// ObsCheck keeps metric registration funneled through internal/obs: the
// observability layer owns every counter, gauge, and timer so /v1/metrics
// and the stage-timing report see one consistent namespace. A metric
// registered directly with expvar.New* or expvar.Publish bypasses the
// registry — it never appears in structured snapshots, cannot be
// preregistered for the stage-timing zero-sample rows, and reintroduces
// the hand-rolled drift this layer replaced. Reading expvar (expvar.Get,
// expvar.Handler, expvar.Do) stays legal; registration is legal nowhere,
// internal/obs included.
var ObsCheck = &Analyzer{
	Name: "obscheck",
	Doc:  "metrics must register through internal/obs, not expvar directly",
	Run:  runObsCheck,
}

// expvarRegistration lists the expvar functions that publish a new
// variable into the process-global table.
var expvarRegistration = map[string]bool{
	"NewInt":    true,
	"NewFloat":  true,
	"NewMap":    true,
	"NewString": true,
	"Publish":   true,
}

func runObsCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || funcPkgPath(fn) != "expvar" {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				return true
			}
			if expvarRegistration[fn.Name()] {
				pass.Reportf(n.Pos(), "expvar.%s registers a metric outside the obs registry; use obs.Registry", fn.Name())
			}
			return true
		})
	}
}
