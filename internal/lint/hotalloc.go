package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-allocation discipline on the simulator's
// per-event hot paths. A function annotated //iobt:hot executes once
// per simulation event (Engine.Step, lane windows, mailbox sends,
// per-tick track association), so any heap allocation in it — or in
// anything it calls — is a per-event allocation that turns the event
// rate into a GC workload. The analyzer flags the allocation shapes
// that dominate event-loop profiles:
//
//   - escaping composite literals (&T{…}, slice and map literals),
//     make, and new;
//   - per-event formatting: fmt.Sprintf/Sprint/Sprintln/Errorf and
//     errors.New;
//   - append to a slice that starts nil or empty in the same function
//     (growth reallocates every few events; preallocate or reuse a
//     buffer);
//   - sort.Slice/sort.SliceStable (a closure plus a reflect-based
//     swapper per call; use slices.Sort or a pointer-receiver
//     sort.Interface);
//   - string ↔ []byte/[]rune conversions;
//   - capturing closures handed to Schedule/Send/ScheduleActor or
//     returned to the caller (one allocation per event; build the
//     closure once at setup and reschedule it by value);
//   - interface boxing of a non-pointer-shaped value (a struct, slice,
//     string, or plain int) through an argument, assignment, return,
//     or conversion — invisible in the source, top of the memprofile;
//     pointers, maps, channels, and funcs box for free — and method
//     values (x.M as a value allocates a bound-method closure).
//
// The rule is interprocedural: a bottom-up pass over the call graph's
// SCCs summarizes every function's allocation behavior, so a hot
// function calling a cold helper that allocates three levels down is
// flagged at the call site, with the chain in the message. Calls to
// callees that are themselves //iobt:hot are not re-flagged — those
// bodies are checked (and waived) in their own right.
//
// Allocations inside a panic(...) argument are exempt: a panic ends
// the run (or the window), so formatting its message is a crash-path
// cost, not a per-event one. Pool-refill allocations, rare-path
// spawns, and message-payload closures are legitimate; waive them
// where they happen with a reasoned //iobt:allow hotalloc comment so
// the steady-state contract stays auditable.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//iobt:hot functions (and, via bottom-up allocation summaries, everything they call) must not allocate per event: no escaping composites, per-event fmt/errors, unpreallocated append, sort.Slice, string conversions, per-event capturing closures, interface boxing, or method values",
	Run:  runHotAlloc,
}

// maxAllocFacts caps one function's allocation summary; the cap bounds
// message size and fixpoint work, not detection — a function is "an
// allocator" from its first fact.
const maxAllocFacts = 3

// An allocSite is one direct per-event allocation in a function body.
type allocSite struct {
	pos  token.Pos
	desc string
}

// allocSites lists fd's direct allocation sites in source order. With
// descend=false (the summary pass) function-literal bodies are skipped:
// code inside a literal runs when the closure runs, not when fd is
// called, so only the closure's own creation (if it captures and
// escapes via scheduling or return) counts against fd. With
// descend=true (reporting inside a //iobt:hot body) literals are
// walked too — a hot function's inline callbacks are part of its cone.
func allocSites(pkg *Package, fd *ast.FuncDecl, descend bool) []allocSite {
	var out []allocSite
	add := func(pos token.Pos, desc string) {
		out = append(out, allocSite{pos: pos, desc: desc})
	}
	q := func(p *types.Package) string { return p.Name() }
	box := func(e ast.Expr, dst types.Type, how string) {
		if src := pkg.Info.TypeOf(e); boxes(dst, src) {
			add(e.Pos(), how+" boxes "+types.TypeString(src, q)+" into "+types.TypeString(dst, q)+
				" (use a concrete type or a pointer payload)")
		}
	}
	nilStart := nilStartSlices(pkg, fd)
	// results are fd's result types; nil while walking a literal, whose
	// returns answer to the literal's own signature.
	results := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Results()
	// called marks selectors in call position (x.M() is dispatch, not a
	// bound-method closure); Inspect visits a call before its Fun.
	called := map[*ast.SelectorExpr]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Creation facts for literals are added at their parent
			// (scheduling call or return); only the body's descent is
			// decided here.
			if descend {
				outer := results
				results = nil
				ast.Inspect(x.Body, walk)
				results = outer
			}
			return false
		case *ast.ReturnStmt:
			for i, res := range x.Results {
				if lit, isLit := ast.Unparen(res).(*ast.FuncLit); isLit {
					if names := captureNames(pkg.Info, lit); names != "" {
						add(lit.Pos(), "returns a closure capturing "+names+" (one allocation per call)")
					}
				}
				if results != nil && i < results.Len() {
					box(res, results.At(i).Type(), "return")
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					box(x.Rhs[i], pkg.Info.TypeOf(lhs), "assignment")
				}
			}
		case *ast.SelectorExpr:
			if s, isSel := pkg.Info.Selections[x]; isSel && s.Kind() == types.MethodVal && !called[x] {
				add(x.Pos(), "method value "+types.ExprString(x)+" allocates a bound-method closure per evaluation; call it directly or hoist the binding")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					add(x.Pos(), "composite literal "+typeLabel(pkg.Info, cl)+" escapes to the heap via &")
				}
			}
		case *ast.CompositeLit:
			switch pkg.Info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				if len(x.Elts) > 0 {
					add(x.Pos(), "slice literal "+typeLabel(pkg.Info, x)+" allocates its backing array")
				}
			case *types.Map:
				add(x.Pos(), "map literal "+typeLabel(pkg.Info, x)+" allocates")
			}
		case *ast.CallExpr:
			if isPanicCall(pkg.Info, x) {
				return false // crash path: formatting the message is not a per-event cost
			}
			if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel {
				called[sel] = true
			}
			if d := callAllocDesc(pkg.Info, x, nilStart); d != "" {
				add(x.Pos(), d) // covers the boxing of its arguments too
			} else {
				callBoxing(pkg.Info, x, box)
			}
			if fn := schedClosureArg(pkg.Info, x); fn != nil {
				if lit, isLit := ast.Unparen(fn).(*ast.FuncLit); isLit {
					if names := captureNames(pkg.Info, lit); names != "" {
						add(lit.Pos(), "schedules a closure capturing "+names+" (one allocation per event; build it once and reschedule by value)")
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return out
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
	if !isIdent {
		return false
	}
	b, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && b.Name() == "panic"
}

// callAllocDesc classifies one call expression as an allocation, or "".
func callAllocDesc(info *types.Info, call *ast.CallExpr, nilStart map[types.Object]bool) string {
	// Builtins: make, new, append.
	if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				if len(call.Args) > 0 {
					return "make(" + types.ExprString(call.Args[0]) + ") allocates"
				}
			case "new":
				if len(call.Args) > 0 {
					return "new(" + types.ExprString(call.Args[0]) + ") allocates"
				}
			case "append":
				if len(call.Args) > 0 {
					if root := rootIdent(call.Args[0]); root != nil && nilStart[info.Uses[root]] {
						return "append to " + root.Name + ", a slice with no preallocated capacity (every growth reallocates)"
					}
				}
			}
			return ""
		}
	}
	// string ↔ []byte/[]rune conversions.
	if tv, isType := info.Types[call.Fun]; isType && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if isStringBytesConv(dst, src) {
			return "conversion " + types.TypeString(src, nil) + " → " + types.TypeString(dst, nil) + " copies and allocates"
		}
		return ""
	}
	// Per-event formatting and sort.Slice.
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if pkgPath, name, ok := pkgQualified(info, sel); ok {
			switch {
			case pkgPath == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln" || name == "Errorf"):
				return "fmt." + name + " allocates per call (boxing plus the result string)"
			case pkgPath == "errors" && name == "New":
				return "errors.New allocates per call"
			case pkgPath == "sort" && (name == "Slice" || name == "SliceStable"):
				return "sort." + name + " allocates a closure and a reflect-based swapper per call; use slices.Sort or a pointer-receiver sort.Interface"
			}
		}
	}
	return ""
}

// pointerShaped reports whether values of t box into an interface
// without allocating: single-word reference types.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// boxes reports whether assigning src to a dst location allocates: dst
// is an interface and src is concrete and not pointer-shaped.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return false
	}
	if _, isIface := src.Underlying().(*types.Interface); isIface {
		return false // interface→interface copies the existing box
	}
	return !pointerShaped(src)
}

// callBoxing passes box every argument bound to an interface parameter,
// including the elements of a variadic ...any tail and the operand of
// an explicit conversion like any(v).
func callBoxing(info *types.Info, call *ast.CallExpr, box func(ast.Expr, types.Type, string)) {
	if tv, isType := info.Types[call.Fun]; isType && tv.IsType() && len(call.Args) == 1 {
		box(call.Args[0], tv.Type, "conversion")
		return
	}
	sig, isSig := info.TypeOf(call.Fun).(*types.Signature)
	if !isSig || call.Ellipsis.IsValid() {
		return // s... passes the slice through; no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, isSlice := params.At(params.Len() - 1).Type().(*types.Slice); isSlice {
				box(arg, s.Elem(), "argument")
			}
		case i < params.Len():
			box(arg, params.At(i).Type(), "argument")
		}
	}
}

// nilStartSlices collects fd's local slice variables declared with no
// backing capacity: `var s []T`, `s := []T{}`, or a make with zero (or
// omitted) capacity — the append-growth shape.
func nilStartSlices(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	markDef := func(id *ast.Ident) {
		if obj := pkg.Info.Defs[id]; obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			gd, isGen := x.Decl.(*ast.GenDecl)
			if !isGen || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, isVal := spec.(*ast.ValueSpec)
				if !isVal || len(vs.Values) > 0 {
					continue
				}
				for _, name := range vs.Names {
					markDef(name)
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				id, isIdent := x.Lhs[i].(*ast.Ident)
				if !isIdent {
					continue
				}
				if zeroCapSliceExpr(pkg.Info, rhs) {
					markDef(id)
				}
			}
		}
		return true
	})
	return out
}

// zeroCapSliceExpr reports whether e builds a slice with no retained
// capacity: an empty slice literal or a make with zero/omitted cap.
func zeroCapSliceExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, isSlice := info.TypeOf(x).Underlying().(*types.Slice)
		return isSlice && len(x.Elts) == 0
	case *ast.CallExpr:
		id, isIdent := ast.Unparen(x.Fun).(*ast.Ident)
		if !isIdent {
			return false
		}
		b, isBuiltin := info.Uses[id].(*types.Builtin)
		if !isBuiltin || b.Name() != "make" || len(x.Args) < 2 {
			return false
		}
		if _, isSlice := info.TypeOf(x).Underlying().(*types.Slice); !isSlice {
			return false
		}
		cap := x.Args[len(x.Args)-1]
		lit, isLit := ast.Unparen(cap).(*ast.BasicLit)
		return isLit && lit.Value == "0"
	}
	return false
}

// isStringBytesConv reports whether dst(src) is one of the allocating
// string conversions.
func isStringBytesConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, isBasic := t.Underlying().(*types.Basic)
		return isBasic && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		s, isSlice := t.Underlying().(*types.Slice)
		if !isSlice {
			return false
		}
		b, isBasic := s.Elem().Underlying().(*types.Basic)
		return isBasic && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}

// captureNames renders a closure's captured locals for messages, or ""
// when it captures nothing (a capture-free literal is a static func —
// no allocation).
func captureNames(info *types.Info, lit *ast.FuncLit) string {
	cvs := freeVars(info, lit)
	if len(cvs) == 0 {
		return ""
	}
	names := make([]string, 0, len(cvs))
	for _, cv := range cvs {
		names = append(names, cv.obj.Name())
	}
	return strings.Join(names, ", ")
}

// typeLabel renders a composite literal's type for messages.
func typeLabel(info *types.Info, cl *ast.CompositeLit) string {
	if t := info.TypeOf(cl); t != nil {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	return "value"
}

// computeAllocFacts derives one function's allocation summary: short
// descriptions of its direct per-event allocations plus, transitively,
// those of its callees — the bottom-up leg that lets hotalloc flag a
// hot call into a cold helper that allocates three frames down.
func computeAllocFacts(prog *Program, node *CGNode) []string {
	var facts []string
	for _, s := range allocSites(node.Pkg, node.Decl, false) {
		facts = append(facts, s.desc)
		if len(facts) >= maxAllocFacts {
			return facts
		}
	}
	// Callee facts in source order, one per callee.
	seen := map[string]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if len(facts) >= maxAllocFacts {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // runs later, not per call of this function
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		for _, key := range calleeKeys(node.Pkg.Info, call, prog.methodImpls) {
			if seen[key] || len(facts) >= maxAllocFacts {
				continue
			}
			seen[key] = true
			if hotCallee(prog, key) {
				// A //iobt:hot callee's allocations are reported (and
				// waived) in its own body; a waived pool refill must not
				// reappear as a fact in every transitive caller.
				continue
			}
			if sub := prog.allocFacts[key]; len(sub) > 0 {
				facts = append(facts, "calls "+displayName(key)+", which "+sub[0])
			}
		}
		return true
	})
	return facts
}

func runHotAlloc(p *Pass) {
	reportMisplaced(p, map[string]string{noteHot: "a function declaration"})
	for _, f := range p.Files {
		// Test files are exempt, like gocapture: harness and fixture code
		// is not the event loop.
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, isFn := p.Info.Defs[fd.Name].(*types.Func)
			if !isFn || !p.Prog.notes.funcHas(fn, noteHot) {
				continue
			}
			for _, s := range allocSites(&Package{Info: p.Info}, fd, true) {
				p.Reportf(s.pos, "%s; //iobt:hot paths must not allocate per event", s.desc)
			}
			checkHotCalls(p, fd)
		}
	}
}

// checkHotCalls reports calls from a hot body into callees whose
// allocation summary is non-empty. Hot callees are skipped — their
// bodies carry their own findings and waivers — as are calls inside
// nested literals' creation sites already reported above.
func checkHotCalls(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		for _, key := range calleeKeys(p.Info, call, p.Prog.methodImpls) {
			if p.Prog.Graph.Nodes[key] == nil {
				continue // external: no body to summarize
			}
			if hotCallee(p.Prog, key) {
				continue
			}
			facts := p.Prog.allocFacts[key]
			if len(facts) == 0 {
				continue
			}
			p.Reportf(call.Pos(), "call to %s allocates per event: %s",
				displayName(key), strings.Join(facts, "; "))
		}
		return true
	})
}

// hotCallee reports whether key names a function annotated //iobt:hot.
func hotCallee(prog *Program, key string) bool {
	node := prog.Graph.Nodes[key]
	if node == nil {
		return false
	}
	fn, isFn := node.Pkg.Info.Defs[node.Decl.Name].(*types.Func)
	return isFn && prog.notes.funcHas(fn, noteHot)
}

// AllocFacts exposes a function's computed allocation summary for
// tests and debugging, keyed like Summary.
func (prog *Program) AllocFacts(key string) []string { return prog.allocFacts[key] }
