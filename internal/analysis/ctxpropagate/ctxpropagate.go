// Package ctxpropagate implements the tkcctxpropagate analyzer: engine
// entry points must stay cancellable, and library code must not mint root
// contexts.
//
// A function annotated
//
//	// tkc:cancellable [param]
//
// declares that its stop hook (the named parameter, or by default the
// first parameter of type func() bool) is a live cancellation channel.
// The analyzer enforces that the hook is actually consumed: it must be
// polled, passed to a callee, or stored for a later phase — a hook that
// is accepted and then ignored silently turns a cancellable API into an
// uninterruptible one. When the hook is only ever polled locally, each
// condition-less `for { ... }` loop in the function must poll it, since
// those are exactly the loops that can spin for an unbounded number of
// iterations on adversarial inputs.
//
// Exported functions in the engine packages (vct, enum, phc, core, dyn)
// that take a func() bool parameter named "stop" must carry the
// annotation, so cancellability is a reviewed, machine-visible contract
// rather than an accident of a parameter name.
//
// Separately, calls to context.Background and context.TODO are banned in
// library code: a root context discards the caller's deadline and
// cancellation. Intentional roots (ctx-less convenience forms, nil-ctx
// tolerance, process-lifetime daemons) are annotated
//
//	// tkc:allow-background: <reason>
//
// Package main and _test files are exempt — those are the places a root
// context legitimately begins.
package ctxpropagate

import (
	"go/ast"
	"go/types"
	"strings"

	"temporalkcore/internal/analysis/directives"
	"temporalkcore/internal/xtools/go/analysis"
	"temporalkcore/internal/xtools/go/analysis/passes/inspect"
	"temporalkcore/internal/xtools/go/ast/inspector"
)

// enginePackages are the packages whose exported stop-taking functions
// must be annotated tkc:cancellable.
var enginePackages = map[string]bool{
	"vct": true, "enum": true, "phc": true, "core": true, "dyn": true,
}

var Analyzer = &analysis.Analyzer{
	Name:     "tkcctxpropagate",
	Doc:      "check that stop hooks are consumed by cancellable engine code and that library code does not mint root contexts",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		ds := directives.ForFunc(fd)
		d, annotated := directives.Find(ds, "cancellable")
		if annotated {
			checkCancellable(pass, fd, d)
		} else if enginePackages[pass.Pkg.Name()] && fd.Name.IsExported() {
			if p := stopParam(pass, fd, directives.Directive{}); p != nil && p.Name() == "stop" {
				pass.Reportf(fd.Name.Pos(), "exported %s function %s takes a stop hook but is not annotated // tkc:cancellable: cancellability must be a declared contract", pass.Pkg.Name(), fd.Name.Name)
			}
		}
	})

	checkBackground(pass, ins)
	return nil, nil
}

// stopParam resolves the stop-hook parameter: the one named in the
// directive's first argument, else the first parameter of type
// func() bool.
func stopParam(pass *analysis.Pass, fd *ast.FuncDecl, d directives.Directive) *types.Var {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := fn.Type().(*types.Signature).Params()
	if len(d.Args) > 0 {
		for i := 0; i < params.Len(); i++ {
			if params.At(i).Name() == d.Args[0] {
				return params.At(i)
			}
		}
		return nil
	}
	for i := 0; i < params.Len(); i++ {
		if isStopFunc(params.At(i).Type()) {
			return params.At(i)
		}
	}
	return nil
}

// isStopFunc reports whether t is func() bool.
func isStopFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// checkCancellable enforces consumption of the stop hook in one annotated
// function.
func checkCancellable(pass *analysis.Pass, fd *ast.FuncDecl, d directives.Directive) {
	p := stopParam(pass, fd, d)
	if p == nil {
		pass.Reportf(fd.Name.Pos(), "function %s is annotated // tkc:cancellable but has no stop hook parameter (named %q or of type func() bool)", fd.Name.Name, strings.Join(d.Args, " "))
		return
	}
	if fd.Body == nil {
		return
	}

	// Classify every use of the hook in the body.
	var polled, delegated bool
	usesHook := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.ObjectOf(id) == p
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if usesHook(nn.Fun) {
				polled = true
			}
			for _, a := range nn.Args {
				if usesHook(a) {
					delegated = true // hook handed to a callee
				}
			}
		case *ast.AssignStmt:
			for _, r := range nn.Rhs {
				if usesHook(r) {
					delegated = true // hook stored for a later phase
				}
			}
		case *ast.CompositeLit:
			for _, el := range nn.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if usesHook(e) {
					delegated = true
				}
			}
		}
		return true
	})

	if !polled && !delegated {
		pass.Reportf(fd.Name.Pos(), "stop hook %s is never consumed: %s accepts a cancellation hook (tkc:cancellable) but neither polls it, passes it on, nor stores it — the call is uninterruptible", p.Name(), fd.Name.Name)
		return
	}
	if delegated {
		// Responsibility handed off; loop-local polling is not required.
		return
	}

	// The hook is polled locally only: every condition-less for loop must
	// poll it, since those are the unbounded ones.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		loopPolls := false
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && usesHook(call.Fun) {
				loopPolls = true
				return false
			}
			return true
		})
		if !loopPolls {
			pass.Reportf(loop.Pos(), "unbounded loop does not poll stop hook %s: a cancellable function (tkc:cancellable) must be able to exit every for-ever loop", p.Name())
		}
		return true
	})
}

// checkBackground bans context.Background/TODO in library code.
func checkBackground(pass *analysis.Pass, ins *inspector.Inspector) {
	if pass.Pkg.Name() == "main" {
		return
	}
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() != "Background" && fn.Name() != "TODO" {
			return true
		}
		file := pass.Fset.File(call.Pos())
		if file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			return true
		}
		// Exempt when any enclosing function declaration carries
		// tkc:allow-background.
		for _, anc := range stack {
			if fd, ok := anc.(*ast.FuncDecl); ok {
				if _, ok := directives.Find(directives.ForFunc(fd), "allow-background"); ok {
					return true
				}
			}
		}
		pass.Reportf(call.Pos(), "context.%s in library code discards the caller's deadline and cancellation: thread a ctx parameter through, or annotate the function // tkc:allow-background: <reason>", fn.Name())
		return true
	})
}
