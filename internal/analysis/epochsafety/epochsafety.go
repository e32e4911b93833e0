// Package epochsafety implements the tkcepochsafety analyzer, the
// machine-checked form of the repository's MVCC epoch memory model: a
// frozen epoch (a copy-on-write snapshot sharing flat history arrays with
// the live graph) must never be mutated, and a refcounted epoch pin must
// be released on every path.
//
// Two function annotations drive it:
//
//	// tkc:frozensource
//
// marks a function or method whose first result is a frozen or pinned
// view (tgraph.Graph.Freeze, Graph.Latest, Graph.pinned,
// dyn.Index.View). Any value a caller obtains from such a function must
// never become the receiver of a method marked
//
//	// tkc:mutates
//
// (tgraph.Graph.Append and its segment-relocation helpers, the public
// Append). The flow is tracked per function through local variables and
// direct call chaining; cross-package annotation knowledge travels as
// analysis facts, so the public layer is checked against tgraph's
// annotations without any shared configuration.
//
//	// tkc:acquires [i]
//
// marks a function whose i-th result (default: the first func() result)
// is a release closure that must be called exactly once; no function in
// the repository carries it today, and the analyzer's testdata keeps the
// check tested for the next refcounted pin. The analyzer checks
// release-on-all-paths over the control-flow graph: every path from the
// acquisition must call the closure, defer it, or transfer
// ownership (return it, store it, pass it on). When the acquiring call
// also returns an ok bool, paths on which ok is false are exempt — the
// release closure is nil there by contract.
package epochsafety

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"

	"temporalkcore/internal/analysis/directives"
	"temporalkcore/internal/analysis/noret"
	"temporalkcore/internal/xtools/go/analysis"
	"temporalkcore/internal/xtools/go/analysis/passes/ctrlflow"
	"temporalkcore/internal/xtools/go/analysis/passes/inspect"
	"temporalkcore/internal/xtools/go/ast/inspector"
	"temporalkcore/internal/xtools/go/cfg"
)

// FrozenSource marks a function whose first result is a frozen/pinned view.
type FrozenSource struct{}

// AFact marks FrozenSource as a serializable analysis fact.
func (*FrozenSource) AFact() {}

func (*FrozenSource) String() string { return "frozensource" }

// Mutator marks a function that mutates state frozen views share.
type Mutator struct{}

// AFact marks Mutator as a serializable analysis fact.
func (*Mutator) AFact() {}

func (*Mutator) String() string { return "mutates" }

// Acquires marks a function returning a release closure at result Result.
type Acquires struct{ Result int }

// AFact marks Acquires as a serializable analysis fact.
func (*Acquires) AFact() {}

func (a *Acquires) String() string { return fmt.Sprintf("acquires(%d)", a.Result) }

var Analyzer = &analysis.Analyzer{
	Name:      "tkcepochsafety",
	Doc:       "check that frozen epoch views are never mutated and epoch pins are released on all paths",
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*FrozenSource)(nil), (*Mutator)(nil), (*Acquires)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Pass 1: export annotation facts.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		ds := directives.ForFunc(fd)
		if _, ok := directives.Find(ds, "frozensource"); ok {
			pass.ExportObjectFact(fn, &FrozenSource{})
		}
		if _, ok := directives.Find(ds, "mutates"); ok {
			pass.ExportObjectFact(fn, &Mutator{})
		}
		if d, ok := directives.Find(ds, "acquires"); ok {
			idx, found := -1, false
			if len(d.Args) == 1 {
				if i, err := strconv.Atoi(d.Args[0]); err == nil {
					idx, found = i, true
				}
			}
			if !found {
				idx, found = releaseResultIndex(fn)
			}
			if !found {
				pass.Reportf(fd.Pos(), "tkc:acquires on %s: no func() result to treat as the release closure", fn.Name())
				return
			}
			pass.ExportObjectFact(fn, &Acquires{Result: idx})
		}
	})

	calleeOf := func(call *ast.CallExpr) *types.Func {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
				return fn
			}
		case *ast.Ident:
			if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
				return fn
			}
		}
		return nil
	}
	hasFact := func(fn *types.Func, fact analysis.Fact) bool {
		return fn != nil && pass.ImportObjectFact(fn, fact)
	}

	// Pass 2: per-function flow checks.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		frozenOK := false // tkc:mutates-frozen-ok: deliberate rejection tests
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body, g = fn.Body, cfgs.FuncDecl(fn)
			_, frozenOK = directives.Find(directives.ForFunc(fn), "mutates-frozen-ok")
		case *ast.FuncLit:
			body, g = fn.Body, cfgs.FuncLit(fn)
		}

		// Frozen-value flow: locals assigned from a frozensource call.
		frozen := make(map[types.Object]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit && n != any(body) {
				// Nested literals are visited as their own function; but
				// frozen locals captured by a closure stay tracked there,
				// so don't prune — the closure visit re-derives its own
				// set and this one catches direct uses.
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !hasFact(calleeOf(call), &FrozenSource{}) {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					frozen[obj] = true
				}
			}
			return true
		})

		// Flag mutator calls whose receiver is frozen.
		ast.Inspect(body, func(n ast.Node) bool {
			if frozenOK {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(call)
			if !hasFact(fn, &Mutator{}) {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch recv := ast.Unparen(sel.X).(type) {
			case *ast.Ident:
				if frozen[pass.TypesInfo.ObjectOf(recv)] {
					pass.Reportf(call.Pos(), "%s mutates a frozen epoch view: %s comes from a tkc:frozensource call and must never reach a tkc:mutates method",
						fn.Name(), recv.Name)
				}
			case *ast.CallExpr:
				if hasFact(calleeOf(recv), &FrozenSource{}) {
					pass.Reportf(call.Pos(), "%s mutates a frozen epoch view obtained directly from a tkc:frozensource call", fn.Name())
				}
			}
			return true
		})

		// Release-on-all-paths for acquires calls.
		if g != nil {
			checkAcquires(pass, g, calleeOf, hasFact)
		}
	})
	return nil, nil
}

// releaseResultIndex finds the first result of type func() in fn's
// signature.
func releaseResultIndex(fn *types.Func) (int, bool) {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if sig, ok := res.At(i).Type().Underlying().(*types.Signature); ok &&
			sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return i, true
		}
	}
	return 0, false
}

// acquisition is one `v, release, ok := x.Acquire()` site under check.
type acquisition struct {
	stmt       *ast.AssignStmt
	releaseObj types.Object // the release closure variable
	okObj      types.Object // the trailing ok bool, if any
}

// checkAcquires verifies that every acquires-annotated call's release
// closure is called, deferred or transferred on every path from the
// acquisition to function exit (or re-acquisition).
func checkAcquires(pass *analysis.Pass, g *cfg.CFG, calleeOf func(*ast.CallExpr) *types.Func, hasFact func(*types.Func, analysis.Fact) bool) {
	// Find acquisitions.
	var acqs []*acquisition
	for _, b := range g.Blocks {
		for _, node := range b.Nodes {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeOf(call)
			var fact Acquires
			if fn == nil || !pass.ImportObjectFact(fn, &fact) {
				continue
			}
			if fact.Result >= len(as.Lhs) {
				continue // e.g. results assigned through a further call
			}
			a := &acquisition{stmt: as}
			if id, ok := as.Lhs[fact.Result].(*ast.Ident); ok {
				if id.Name == "_" {
					pass.Reportf(id.Pos(), "release closure from %s discarded: the epoch pin can never be released", fn.Name())
					continue
				}
				a.releaseObj = pass.TypesInfo.ObjectOf(id)
			}
			if a.releaseObj == nil {
				continue
			}
			// Trailing bool result, when present and bound, is the ok
			// guard: release is nil by contract when it is false.
			sig := fn.Type().(*types.Signature)
			last := sig.Results().Len() - 1
			if last >= 0 && last < len(as.Lhs) && last != fact.Result {
				if bt, ok := sig.Results().At(last).Type().Underlying().(*types.Basic); ok && bt.Kind() == types.Bool {
					if id, ok := as.Lhs[last].(*ast.Ident); ok && id.Name != "_" {
						a.okObj = pass.TypesInfo.ObjectOf(id)
					}
				}
			}
			acqs = append(acqs, a)
		}
	}

	for _, a := range acqs {
		checkReleasePaths(pass, g, a)
	}
}

// nodeEvent classifies what a node means for a tracked release closure.
type nodeEvent int

const (
	evNone      nodeEvent = iota
	evRelease             // release() called, deferred, or ownership moved
	evReacquire           // the tracked variable is reassigned
)

// classify inspects one CFG node for release/transfer events on obj.
func classify(info *types.Info, node ast.Node, a *acquisition) nodeEvent {
	if node == a.stmt {
		return evReacquire
	}
	ev := evNone
	ast.Inspect(node, func(n ast.Node) bool {
		if ev == evRelease {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			// Direct call: release().
			if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok && info.ObjectOf(id) == a.releaseObj {
				ev = evRelease
				return false
			}
			// Passed as an argument: ownership transferred.
			for _, arg := range nn.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == a.releaseObj {
					ev = evRelease
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range nn.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.ObjectOf(id) == a.releaseObj {
					ev = evRelease
					return false
				}
			}
		case *ast.CompositeLit:
			// Stored into a struct/slice/map literal (pin registries, test
			// bookkeeping): ownership transferred to that value.
			for _, el := range nn.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.ObjectOf(id) == a.releaseObj {
					ev = evRelease
					return false
				}
			}
		case *ast.AssignStmt:
			if nn == a.stmt {
				return true
			}
			// Stored somewhere: ownership transferred. (Assigning INTO
			// the release var would be a reacquire-like event; both are
			// rare enough to treat as transfer conservatively.)
			for _, r := range nn.Rhs {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.ObjectOf(id) == a.releaseObj {
					ev = evRelease
					return false
				}
			}
		}
		return true
	})
	return ev
}

// okFalseBranch reports whether block b is entered only when a.okObj is
// false: the then branch of `if !ok` or the else branch of `if ok`.
func okFalseBranch(info *types.Info, b *cfg.Block, a *acquisition) bool {
	if a.okObj == nil {
		return false
	}
	ifs, ok := b.Stmt.(*ast.IfStmt)
	if !ok {
		return false
	}
	switch b.Kind {
	case cfg.KindIfThen:
		if un, ok := ifs.Cond.(*ast.UnaryExpr); ok && un.Op.String() == "!" {
			if id, ok := ast.Unparen(un.X).(*ast.Ident); ok && info.ObjectOf(id) == a.okObj {
				return true
			}
		}
	case cfg.KindIfElse, cfg.KindIfDone:
		// KindIfDone only implies !ok when the then branch cannot fall
		// through; be conservative and only accept the explicit else.
		if b.Kind == cfg.KindIfElse {
			if id, ok := ast.Unparen(ifs.Cond).(*ast.Ident); ok && info.ObjectOf(id) == a.okObj {
				return true
			}
		}
	}
	return false
}

// checkReleasePaths walks every CFG path from the acquisition and reports
// one that reaches function exit (or re-acquisition) with no release.
func checkReleasePaths(pass *analysis.Pass, g *cfg.CFG, a *acquisition) {
	// Locate the acquisition node.
	var acqBlock *cfg.Block
	acqIdx := -1
	for _, b := range g.Blocks {
		for i, node := range b.Nodes {
			if node == a.stmt {
				acqBlock, acqIdx = b, i
			}
		}
	}
	if acqBlock == nil {
		return
	}

	// scan looks for a release event in b.Nodes[from:]; it returns
	// (released, leakedHere) — leakedHere when the acquisition statement
	// itself is re-executed before any release.
	scan := func(b *cfg.Block, from int) (bool, bool) {
		for _, node := range b.Nodes[from:] {
			switch classify(pass.TypesInfo, node, a) {
			case evRelease:
				return true, false
			case evReacquire:
				return false, true
			}
		}
		return false, false
	}

	visited := make(map[*cfg.Block]bool)
	var leakAt *cfg.Block
	var walk func(b *cfg.Block, from int) bool // true = leak found
	walk = func(b *cfg.Block, from int) bool {
		released, reacquired := scan(b, from)
		if released {
			return false
		}
		if reacquired {
			leakAt = b
			return true
		}
		if len(b.Succs) == 0 {
			if b.Kind == cfg.KindUnreachable {
				return false // post-panic/no-return code: not a real path
			}
			if n := len(b.Nodes); n > 0 && noret.Terminates(pass.TypesInfo, b.Nodes[n-1]) {
				return false // path ends in panic/Fatal/Exit, not a return
			}
			leakAt = b
			return true // reached exit without release
		}
		for _, s := range b.Succs {
			if visited[s] {
				continue
			}
			if okFalseBranch(pass.TypesInfo, s, a) {
				continue // release is nil by contract on the !ok path
			}
			visited[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	if walk(acqBlock, acqIdx+1) {
		where := "function exit"
		if leakAt != nil && leakAt.Kind != cfg.KindUnreachable && len(leakAt.Succs) != 0 {
			where = "re-acquisition"
		}
		pass.Reportf(a.stmt.Pos(), "release closure %s from a tkc:acquires call may reach %s without being called: the epoch pin leaks and its generation can never drain",
			a.releaseObj.Name(), where)
	}
}
