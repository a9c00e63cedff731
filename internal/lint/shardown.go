package lint

import (
	"go/ast"
	"go/types"
)

// Shardown enforces the owner-only half of the sharded engine's
// contract (DESIGN.md §12): a value of a type annotated
// //iobt:actor-state belongs to exactly one actor, and only events
// executing on that actor may touch it. Inside ShardCtx event callbacks
// every access to actor state must therefore be *self-rooted* — reached
// through ShardCtx.Self(), through a parameter the caller already
// vouched for, or through a local derived from either. Indexing the
// actor table with a peer ID, ranging over every actor's state, or
// passing a non-self-rooted actor-state value to a helper are all
// findings: that interaction has to travel as a ShardCtx.Send message
// so the barrier protocol serializes it. Setup and collection code
// (functions without a ShardCtx in their signature) runs while the
// engine is quiescent and is exempt.
var Shardown = &Analyzer{
	Name: "shardown",
	Doc:  "//iobt:actor-state values are owner-only: event callbacks may touch them only through ShardCtx.Self()-rooted paths; cross-actor interaction goes through ShardCtx.Send",
	Run:  runShardown,
}

// isShardCtxPtr reports whether t is *sim.ShardCtx.
func isShardCtxPtr(t types.Type) bool {
	p, isPtr := t.(*types.Pointer)
	if !isPtr {
		return false
	}
	named, _ := p.Elem().(*types.Named)
	return namedIs(named, "iobt/internal/sim", "ShardCtx")
}

// isActorState reports whether t (or its pointee) is annotated
// //iobt:actor-state.
func (p *Pass) isActorState(t types.Type) bool {
	return p.Prog.notes.typeHas(t, noteActorState)
}

// actorStateName renders the annotated type's bare name for messages.
func actorStateName(t types.Type) string {
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return t.String()
}

// fieldListHasShardCtx reports whether any entry in the field lists is
// a *sim.ShardCtx parameter.
func fieldListHasShardCtx(info *types.Info, lists ...*ast.FieldList) bool {
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if isShardCtxPtr(info.TypeOf(f.Type)) {
				return true
			}
		}
	}
	return false
}

// ctxScope is one region of code executing as a shard event callback:
// either a declared function with a *ShardCtx parameter, or a function
// literal with one (an event closure built by a maker without its own
// ShardCtx).
type ctxScope struct {
	body *ast.BlockStmt
	// decl is the enclosing declaration; its actor-state parameters and
	// receiver are trusted self-rooted (the caller is held to the rules
	// at its own call sites).
	decl *ast.FuncDecl
}

// ctxScopes finds the callback scopes in one declaration: the whole
// body when the declaration itself takes a ShardCtx, else the top-most
// ShardCtx-typed function literals inside it.
func ctxScopes(info *types.Info, fd *ast.FuncDecl) []ctxScope {
	if fd.Body == nil {
		return nil
	}
	if fieldListHasShardCtx(info, fd.Recv, fd.Type.Params) {
		return []ctxScope{{body: fd.Body, decl: fd}}
	}
	var out []ctxScope
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		lit, isLit := n.(*ast.FuncLit)
		if !isLit {
			return true
		}
		if fieldListHasShardCtx(info, lit.Type.Params) {
			out = append(out, ctxScope{body: lit.Body, decl: fd})
			return false // inner literals are covered by this scope's walk
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	return out
}

func runShardown(p *Pass) {
	reportMisplaced(p, map[string]string{
		noteActorState: "a type declaration",
		noteFrozen:     "a type declaration",
	})
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc {
				continue
			}
			for _, scope := range ctxScopes(p.Info, fd) {
				checkScope(p, scope)
			}
		}
	}
}

// scopeState tracks provenance within one callback scope.
type scopeState struct {
	p *Pass
	// self holds objects proven to reference the current actor's own
	// state: trusted parameters plus locals assigned from self-rooted
	// expressions.
	self map[types.Object]bool
	// idx holds integer-ish locals derived from ShardCtx.Self().
	idx map[types.Object]bool
}

func checkScope(p *Pass, scope ctxScope) {
	st := &scopeState{p: p, self: map[types.Object]bool{}, idx: map[types.Object]bool{}}

	// Trust the enclosing declaration's receiver and actor-state
	// parameters: shardown checks the caller's side at the call site.
	trust := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := p.Info.Defs[name]
				if obj != nil && p.isActorState(obj.Type()) {
					st.self[obj] = true
				}
			}
		}
	}
	trust(scope.decl.Recv)
	trust(scope.decl.Type.Params)

	// Provenance collection to a fixpoint: self/idx sets only grow, and
	// chains through locals are short.
	for i := 0; i < 4; i++ {
		before := len(st.self) + len(st.idx)
		ast.Inspect(scope.body, func(n ast.Node) bool {
			asg, isAssign := n.(*ast.AssignStmt)
			if !isAssign || len(asg.Lhs) != len(asg.Rhs) {
				return true
			}
			for j, lhs := range asg.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				rhs := asg.Rhs[j]
				if p.isActorState(obj.Type()) && st.selfRooted(rhs) {
					st.self[obj] = true
				}
				if st.selfIndex(rhs) {
					st.idx[obj] = true
				}
			}
			return true
		})
		if len(st.self)+len(st.idx) == before {
			break
		}
	}

	// Check pass.
	ast.Inspect(scope.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if elem := containerElem(p.Info.TypeOf(x.X)); elem != nil && p.isActorState(elem) {
				p.Reportf(x.X.Pos(),
					"event callback iterates over every actor's %s state; fold global views after Run returns or through ShardCtx.Send messages",
					actorStateName(elem))
				// Treat the iteration variable as self-rooted after the
				// report so one range yields one finding, not a cascade.
				if id, isIdent := x.Value.(*ast.Ident); isIdent {
					if obj := p.Info.Defs[id]; obj != nil {
						st.self[obj] = true
					}
				}
			}
		case *ast.SelectorExpr:
			base := x.X
			if p.isActorState(p.Info.TypeOf(base)) && !st.selfRooted(base) {
				p.Reportf(base.Pos(),
					"actor-state %s accessed through %q, which is not rooted at ShardCtx.Self(); cross-actor interaction must go through ShardCtx.Send",
					actorStateName(p.Info.TypeOf(base)), types.ExprString(base))
			}
		case *ast.CallExpr:
			for _, arg := range x.Args {
				if p.isActorState(p.Info.TypeOf(arg)) && !st.selfRooted(arg) {
					p.Reportf(arg.Pos(),
						"call passes actor-state %s not rooted at ShardCtx.Self(); the callee would touch another actor's state — send that actor a message instead",
						actorStateName(p.Info.TypeOf(arg)))
				}
			}
		}
		return true
	})
}

// containerElem returns the element type of a slice, array, or map, or
// nil for anything else.
func containerElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	}
	return nil
}

// selfRooted reports whether the expression provably references the
// current actor's own state.
func (st *scopeState) selfRooted(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			obj := st.p.Info.Uses[x]
			if obj == nil {
				obj = st.p.Info.Defs[x]
			}
			return obj != nil && st.self[obj]
		case *ast.IndexExpr:
			// container[i]: self-rooted iff the index derives from Self().
			return st.selfIndex(x.Index)
		case *ast.SelectorExpr:
			// A field of self-rooted state stays self-rooted.
			return st.selfRooted(x.X)
		case *ast.CallExpr:
			// The callee's own body and call sites are held to the rules;
			// its result is trusted here.
			return true
		default:
			return false
		}
	}
}

// selfIndex reports whether an index expression derives from
// ShardCtx.Self(): the call itself, a conversion of it, or a local
// assigned from either.
func (st *scopeState) selfIndex(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		if st.p.Info.Types[x.Fun].IsType() && len(x.Args) == 1 {
			return st.selfIndex(x.Args[0]) // conversion keeps provenance
		}
		if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "Self" {
			return isShardCtxPtr(st.p.Info.TypeOf(sel.X))
		}
		return false
	case *ast.Ident:
		obj := st.p.Info.Uses[x]
		if obj == nil {
			obj = st.p.Info.Defs[x]
		}
		return obj != nil && st.idx[obj]
	}
	// Deliberately NOT trusted: fields of self-rooted state (n.peer is an
	// actor ID too, and indexing the table with it is exactly the
	// cross-actor reach this analyzer exists to catch).
	return false
}
