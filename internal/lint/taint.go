package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the forward taint engine under dettaint. The property
// tracked is ORDER sensitivity, not secrecy: a value is tainted when
// its content (or the sequence of operations it drives) depends on map
// iteration order or host entropy, both of which vary between
// same-seed runs. Taint enters at sources (range over a map, wall
// clock, unseeded randomness), propagates through assignments,
// arithmetic, composite construction, and calls (using the callee's
// summary), is removed by sorting, and is reported when it reaches a
// determinism sink: checkpoint encoding, RNG stream selection, event
// scheduling, ordered writes, or a function's slice result. A sink
// called inside a map-range body is reported even when no tainted
// value reaches it: it runs once per entry, in iteration order.
//
// Each function is analyzed with its parameters (receiver first)
// carrying symbolic taint, so the same walk that finds concrete
// source→sink flows also derives the function's Summary — which sinks
// each parameter reaches, whether each parameter flows to the results,
// and whether the results are tainted by the function's own sources.
// Callers consume summaries instead of re-walking callee bodies, which
// keeps the whole-program pass linear in program size (bottom-up over
// SCCs; see summaries.go).

// taintKind classifies why a value is order-sensitive.
type taintKind uint8

const (
	// taintMap: content or sequence follows map iteration order.
	taintMap taintKind = iota
	// taintHost: derived from wall clock or unseeded randomness.
	taintHost
	// taintParam: symbolic — follows parameter i of the function under
	// analysis; used only while building summaries, never reported.
	taintParam
)

func (k taintKind) String() string {
	switch k {
	case taintMap:
		return "map-iteration order"
	case taintHost:
		return "host entropy"
	default:
		return "parameter"
	}
}

// An origin is one reason a value is tainted.
type origin struct {
	kind  taintKind
	param int       // parameter index, for taintParam
	pos   token.Pos // source position, for concrete kinds
	what  string    // source description ("range over map[string]int")
	// via is the call chain the taint crossed, innermost first; empty
	// for taint born in the current function.
	via []string
}

func (o origin) describe(fset *token.FileSet) string {
	s := o.kind.String() + " (" + o.what
	if o.pos.IsValid() {
		p := fset.Position(o.pos)
		s += fmt.Sprintf(" at %s:%d", shortFile(p.Filename), p.Line)
	}
	s += ")"
	if len(o.via) > 0 {
		s += " via " + strings.Join(o.via, " → ")
	}
	return s
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// mergeOrigins unions two origin sets, deduplicating by identity and
// keeping the shortest via chain for each.
func mergeOrigins(a, b []origin) []origin {
	if len(b) == 0 {
		return a
	}
	out := a
	for _, o := range b {
		dup := false
		for i, e := range out {
			if e.kind == o.kind && e.param == o.param && e.pos == o.pos {
				if len(o.via) < len(e.via) {
					out[i] = o
				}
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	return out
}

// pushVia returns origins with one more call hop prepended.
func pushVia(os []origin, callee string) []origin {
	out := make([]origin, len(os))
	for i, o := range os {
		o.via = append([]string{callee}, o.via...)
		out[i] = o
	}
	return out
}

// A sinkHit records that taint reached one sink, for summaries.
type sinkHit struct {
	desc string
	via  []string
}

// A Summary is one function's interprocedural behavior, as seen by its
// callers. Parameter indexing counts the receiver as parameter 0;
// plain functions start at 0 with their first parameter.
type Summary struct {
	// ParamSinks maps a parameter index to the sinks its taint reaches,
	// in this function or transitively through its callees.
	ParamSinks map[int][]sinkHit
	// ParamOut marks parameters whose taint flows into a result.
	ParamOut map[int]bool
	// ResultTaint lists concrete origins (this function's own sources,
	// or its callees') that taint the results.
	ResultTaint []origin
}

func newSummary() *Summary {
	return &Summary{ParamSinks: map[int][]sinkHit{}, ParamOut: map[int]bool{}}
}

// fingerprint serializes the summary for fixpoint detection in SCCs.
func (s *Summary) fingerprint() string {
	var b strings.Builder
	idx := make([]int, 0, len(s.ParamSinks))
	for i := range s.ParamSinks {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Fprintf(&b, "P%d:", i)
		for _, h := range s.ParamSinks[i] {
			fmt.Fprintf(&b, "%s;", h.desc)
		}
	}
	idx = idx[:0]
	for i := range s.ParamOut {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	fmt.Fprintf(&b, "|out:%v|", idx)
	for _, o := range s.ResultTaint {
		fmt.Fprintf(&b, "R%d.%d;", o.kind, o.pos)
	}
	return b.String()
}

func (s *Summary) addParamSink(i int, h sinkHit) {
	for _, e := range s.ParamSinks[i] {
		if e.desc == h.desc {
			return
		}
	}
	s.ParamSinks[i] = append(s.ParamSinks[i], h)
}

// A programFinding is one dettaint diagnostic, attributed to the
// package it occurs in (the dettaint analyzer emits it when that
// package's pass runs).
type programFinding struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

// taintState is the per-function analysis state.
type taintState struct {
	prog *Program
	pkg  *Package
	node *CGNode
	// vars carries each object's current taint.
	vars map[types.Object][]origin
	// results holds named result objects, for bare returns.
	results []types.Object
	sum     *Summary
	// record is true on the reporting pass (state is warm).
	record bool
	// ranges holds the origins of the enclosing map-range loops,
	// innermost last.
	ranges []origin
}

// analyzeFunc runs the two-pass transfer over node's body: the first
// pass warms variable state (so taint introduced late in the source
// still reaches uses earlier in a loop body), the second records
// summary entries and findings.
func analyzeFunc(prog *Program, node *CGNode) *Summary {
	st := &taintState{prog: prog, pkg: node.Pkg, node: node, sum: newSummary()}
	for pass := 0; pass < 2; pass++ {
		st.record = pass == 1
		if pass == 0 {
			st.vars = map[types.Object][]origin{}
		}
		st.seedParams()
		st.walkStmts(node.Decl.Body.List)
	}
	return st.sum
}

// paramObjects lists the function's receiver (if any) then parameters.
func paramObjects(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			addField(f)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addField(f)
		}
	}
	return out
}

func (st *taintState) seedParams() {
	fd := st.node.Decl
	for i, obj := range paramObjects(st.pkg, fd) {
		st.vars[obj] = mergeOrigins(st.vars[obj], []origin{{kind: taintParam, param: i}})
	}
	st.results = nil
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := st.pkg.Info.Defs[name]; obj != nil {
					st.results = append(st.results, obj)
				}
			}
		}
	}
}

// walkStmts processes statements in source order (flow-insensitive
// within branches: all arms are walked).
func (st *taintState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *taintState) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.AssignStmt:
		st.assign(x)
	case *ast.DeclStmt:
		if gd, isGen := x.Decl.(*ast.GenDecl); isGen {
			for _, spec := range gd.Specs {
				vs, isVal := spec.(*ast.ValueSpec)
				if !isVal {
					continue
				}
				for i, name := range vs.Names {
					obj := st.pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					var t []origin
					if len(vs.Values) == len(vs.Names) {
						t = st.taintOf(vs.Values[i])
					} else if len(vs.Values) == 1 {
						t = st.taintOf(vs.Values[0])
					}
					st.vars[obj] = t
				}
			}
		}
	case *ast.ExprStmt:
		st.taintOf(x.X)
	case *ast.IncDecStmt:
		// x++ adds a constant: order-insensitive.
	case *ast.GoStmt:
		st.taintOf(x.Call)
	case *ast.DeferStmt:
		st.taintOf(x.Call)
	case *ast.ReturnStmt:
		st.handleReturn(x)
	case *ast.BlockStmt:
		st.walkStmts(x.List)
	case *ast.IfStmt:
		st.walkStmt(x.Init)
		st.taintOf(x.Cond)
		st.walkStmt(x.Body)
		st.walkStmt(x.Else)
	case *ast.ForStmt:
		st.walkStmt(x.Init)
		if x.Cond != nil {
			st.taintOf(x.Cond)
		}
		st.walkStmt(x.Body)
		st.walkStmt(x.Post)
	case *ast.RangeStmt:
		st.handleRange(x)
	case *ast.SwitchStmt:
		st.walkStmt(x.Init)
		if x.Tag != nil {
			st.taintOf(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, isCase := c.(*ast.CaseClause); isCase {
				st.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		st.walkStmt(x.Init)
		st.walkStmt(x.Assign)
		for _, c := range x.Body.List {
			if cc, isCase := c.(*ast.CaseClause); isCase {
				st.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, isComm := c.(*ast.CommClause); isComm {
				st.walkStmt(cc.Comm)
				st.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		st.walkStmt(x.Stmt)
	case *ast.SendStmt:
		st.taintOf(x.Value)
	}
}

// handleRange taints the iteration variables of a range over a map
// (both key and value follow iteration order) and propagates element
// taint for slices, arrays, and channels. A map range's body is walked
// with its origin on st.ranges, for the control-dependence rule.
func (st *taintState) handleRange(x *ast.RangeStmt) {
	var kv []origin
	t := st.pkg.Info.TypeOf(x.X)
	if t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			kv = []origin{{kind: taintMap, pos: x.Pos(),
				what: "range over " + types.TypeString(t, nil)}}
			st.ranges = append(st.ranges, kv[0])
			defer func() { st.ranges = st.ranges[:len(st.ranges)-1] }()
		} else {
			kv = st.taintOf(x.X)
		}
	}
	for _, e := range []ast.Expr{x.Key, x.Value} {
		if e == nil {
			continue
		}
		if id, isIdent := e.(*ast.Ident); isIdent {
			if obj := st.objectOf(id); obj != nil {
				st.vars[obj] = kv
			}
		}
	}
	st.walkStmt(x.Body)
}

func (st *taintState) objectOf(id *ast.Ident) types.Object {
	if obj := st.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return st.pkg.Info.Uses[id]
}

// integerCommutative reports whether a compound assignment on an
// integer-typed lvalue is an order-insensitive reduction (+=, |=, &=,
// ^=, *= over integers commute and associate exactly, so accumulating
// in map order is still deterministic; float accumulation is not).
func (st *taintState) integerCommutative(tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
	default:
		return false
	}
	t := st.pkg.Info.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, isBasic := t.Underlying().(*types.Basic)
	return isBasic && b.Info()&types.IsInteger != 0
}

func (st *taintState) assign(x *ast.AssignStmt) {
	// Compound assignment: merge into the existing taint, except for
	// commutative integer reductions.
	if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
		if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
			rt := st.taintOf(x.Rhs[0])
			if st.integerCommutative(x.Tok, x.Lhs[0]) {
				return
			}
			st.mergeInto(x.Lhs[0], rt)
		}
		return
	}

	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		// Multi-value: a call, map index, or type assertion. All
		// destinations inherit the combined taint (per-result summaries
		// would be more precise; combined is sound enough here).
		rt := st.taintOf(x.Rhs[0])
		for _, lhs := range x.Lhs {
			st.setOrMerge(lhs, rt)
		}
		return
	}
	for i, lhs := range x.Lhs {
		if i >= len(x.Rhs) {
			break
		}
		st.setOrMerge(lhs, st.taintOf(x.Rhs[i]))
	}
}

// setOrMerge writes taint to an lvalue: plain identifiers get a strong
// update, element/field writes merge into the container's object (a
// tainted element makes the aggregate order-sensitive).
func (st *taintState) setOrMerge(lhs ast.Expr, t []origin) {
	if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
		if id.Name == "_" {
			return
		}
		if obj := st.objectOf(id); obj != nil {
			st.vars[obj] = t
		}
		return
	}
	st.mergeInto(lhs, t)
}

func (st *taintState) mergeInto(lhs ast.Expr, t []origin) {
	if len(t) == 0 {
		return
	}
	if root := rootIdent(lhs); root != nil {
		if obj := st.objectOf(root); obj != nil {
			st.vars[obj] = mergeOrigins(st.vars[obj], t)
		}
	}
}

// taintOf evaluates an expression's taint, visiting calls for their
// side effects (sink checks) along the way.
func (st *taintState) taintOf(e ast.Expr) []origin {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if obj := st.objectOf(x); obj != nil {
			return st.vars[obj]
		}
		return nil
	case *ast.ParenExpr:
		return st.taintOf(x.X)
	case *ast.SelectorExpr:
		// Field access shares the container's taint; package-qualified
		// names carry none.
		if _, isPkg := st.pkg.Info.Uses[unparenIdent(x.X)].(*types.PkgName); isPkg {
			return nil
		}
		return st.taintOf(x.X)
	case *ast.IndexExpr:
		return mergeOrigins(st.taintOf(x.X), st.taintOf(x.Index))
	case *ast.IndexListExpr:
		return st.taintOf(x.X)
	case *ast.SliceExpr:
		return st.taintOf(x.X)
	case *ast.StarExpr:
		return st.taintOf(x.X)
	case *ast.UnaryExpr:
		return st.taintOf(x.X)
	case *ast.BinaryExpr:
		return mergeOrigins(st.taintOf(x.X), st.taintOf(x.Y))
	case *ast.KeyValueExpr:
		return mergeOrigins(st.taintOf(x.Key), st.taintOf(x.Value))
	case *ast.CompositeLit:
		var t []origin
		for _, el := range x.Elts {
			t = mergeOrigins(t, st.taintOf(el))
		}
		return t
	case *ast.TypeAssertExpr:
		return st.taintOf(x.X)
	case *ast.FuncLit:
		// The literal's body runs in this function's scope; walk it so
		// sinks inside closures (scheduled callbacks) are checked
		// against the shared state.
		st.walkStmt(x.Body)
		return nil
	case *ast.CallExpr:
		return st.visitCall(x)
	}
	return nil
}

func unparenIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func (st *taintState) handleReturn(x *ast.ReturnStmt) {
	record := func(e ast.Expr, t []origin) {
		for _, o := range t {
			switch o.kind {
			case taintParam:
				if st.record {
					st.sum.ParamOut[o.param] = true
				}
			default:
				if st.record {
					st.sum.ResultTaint = mergeOrigins(st.sum.ResultTaint, []origin{o})
					st.checkEscape(e, o, x.Pos())
				}
			}
		}
	}
	if len(x.Results) == 0 {
		for _, obj := range st.results {
			record(nil, st.vars[obj])
		}
		return
	}
	for _, e := range x.Results {
		record(e, st.taintOf(e))
	}
}

// checkEscape reports a function returning a slice whose order is
// map-iteration-tainted, built locally or by a helper.
func (st *taintState) checkEscape(e ast.Expr, o origin, retPos token.Pos) {
	if o.kind != taintMap || e == nil {
		return
	}
	t := st.pkg.Info.TypeOf(e)
	if t == nil {
		return
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return
	}
	st.prog.report(st.pkg, retPos,
		"%s returns a slice ordered by %s without sorting; callers observe a different order every run",
		st.node.Decl.Name.Name, o.describe(st.pkg.Fset))
}

// visitCall checks the call against sinks and sanitizers, then returns
// the taint of its results.
func (st *taintState) visitCall(call *ast.CallExpr) []origin {
	// Builtins.
	if id := unparenIdent(call.Fun); id != nil {
		if _, isBuiltin := st.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var t []origin
				for _, a := range call.Args {
					t = mergeOrigins(t, st.taintOf(a))
				}
				return t
			case "copy":
				if len(call.Args) == 2 {
					st.mergeInto(call.Args[0], st.taintOf(call.Args[1]))
				}
				return nil
			case "len", "cap", "delete", "make", "new", "clear", "min", "max":
				for _, a := range call.Args {
					st.taintOf(a)
				}
				return nil
			}
			return nil
		}
		// Conversions: T(x) keeps x's taint.
		if _, isType := st.pkg.Info.Uses[id].(*types.TypeName); isType {
			if len(call.Args) == 1 {
				return st.taintOf(call.Args[0])
			}
			return nil
		}
	}

	// Sanitizers: stdlib sorters and local sortXxx helpers remove
	// order taint from their argument.
	if st.isSorter(call) {
		if len(call.Args) > 0 {
			st.sanitize(call.Args[0])
		}
		return nil
	}

	// Sources: wall clock and unseeded randomness.
	if o, isSource := st.entropySource(call); isSource {
		for _, a := range call.Args {
			st.taintOf(a)
		}
		return []origin{o}
	}

	// Evaluate argument taint (receiver first, matching Summary
	// numbering), which also recursively visits nested calls.
	args := callArgExprs(st.pkg.Info, call)
	argTaint := make([][]origin, len(args))
	for i, a := range args {
		argTaint[i] = st.taintOf(a)
	}

	// Sinks: a tainted argument first, else the enclosing map range. All
	// findings are reported at the call, so report keeps one per call
	// site — the direct sink's, before any reached through the callee.
	if desc, isSink := st.sinkCall(call); isSink {
		for _, t := range argTaint {
			st.recordSinkFlow(call.Pos(), desc, nil, t)
		}
		if n := len(st.ranges); n > 0 && st.record {
			st.prog.report(st.pkg, call.Pos(),
				"%s runs once per map entry, in %s; collect and sort the keys first",
				desc, st.ranges[n-1].describe(st.pkg.Fset))
		}
	}

	// Callee summaries.
	var out []origin
	for _, key := range calleeKeys(st.pkg.Info, call, st.prog.methodImpls) {
		sum := st.prog.summaries[key]
		if sum == nil {
			continue
		}
		calleeName := displayName(key)
		for j, t := range argTaint {
			if len(t) == 0 {
				continue
			}
			for _, h := range sum.ParamSinks[j] {
				st.recordSinkFlow(call.Pos(), h.desc,
					append([]string{calleeName}, h.via...), t)
			}
			if sum.ParamOut[j] {
				out = mergeOrigins(out, pushVia(t, calleeName))
			}
		}
		if len(sum.ResultTaint) > 0 {
			out = mergeOrigins(out, pushVia(sum.ResultTaint, calleeName))
		}
	}
	if out != nil {
		return out
	}

	// Unknown callee (stdlib, external): conservatively pass argument
	// taint through to the result — strings.Join of a tainted slice is
	// a tainted string.
	if staticCallee(st.pkg.Info, call) != nil {
		if st.knownCallee(call) {
			// Analyzed function with an empty summary: results clean.
			return nil
		}
	}
	var t []origin
	for _, a := range argTaint {
		t = mergeOrigins(t, a)
	}
	return t
}

// knownCallee reports whether the call statically reaches a function
// whose body was analyzed (so its summary is authoritative).
func (st *taintState) knownCallee(call *ast.CallExpr) bool {
	for _, key := range calleeKeys(st.pkg.Info, call, st.prog.methodImpls) {
		if _, known := st.prog.Graph.Nodes[key]; known {
			return true
		}
	}
	return false
}

// recordSinkFlow routes taint arriving at a sink: symbolic taint feeds
// the summary; concrete taint is a finding.
func (st *taintState) recordSinkFlow(pos token.Pos, desc string, via []string, taint []origin) {
	if !st.record {
		return
	}
	for _, o := range taint {
		if o.kind == taintParam {
			st.sum.addParamSink(o.param, sinkHit{desc: desc, via: via})
			continue
		}
		sink := desc
		if len(via) > 0 {
			sink += " (reached inside " + strings.Join(via, " → ") + ")"
		}
		st.prog.report(st.pkg, pos,
			"value tainted by %s flows into %s; same-seed runs diverge — sort (or derive deterministically) before this call",
			o.describe(st.pkg.Fset), sink)
	}
}

// orderedWriteMethods are method names that emit bytes in call order
// regardless of receiver.
var orderedWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

// orderedPkgFuncs are package-level functions that emit in call order.
var orderedPkgFuncs = map[string]map[string]bool{
	"fmt": {
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Print": true, "Printf": true, "Println": true,
	},
	"encoding/binary": {"Write": true},
}

// sortFuncs are the stdlib sorters that sanitize map-order taint.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sinkCall classifies a call as a determinism sink, the one table both
// the data-flow and the control-dependence rule consult.
func (st *taintState) sinkCall(call *ast.CallExpr) (desc string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	if pkgPath, name, qualified := pkgQualified(st.pkg.Info, sel); qualified {
		if orderedPkgFuncs[pkgPath][name] {
			return "ordered output (" + pkgPath + "." + name + ")", true
		}
		if pkgPath == "iobt/internal/compose" && strings.HasPrefix(name, "Encode") {
			return "checkpoint encoding (" + name + ")", true
		}
		return "", false
	}
	named, name := receiverNamed(st.pkg.Info, sel), sel.Sel.Name
	switch {
	case namedIs(named, "iobt/internal/checkpoint", "Encoder"):
		return "checkpoint encoding (Encoder." + name + ")", true
	case namedIs(named, "iobt/internal/sim", "RNG"):
		return "the seeded RNG (RNG." + name + ")", true
	case namedIs(named, "iobt/internal/sim", "Engine") && (name == "Schedule" || name == "ScheduleAt" || name == "Every"),
		schedClosureArg(st.pkg.Info, call) != nil: // ShardCtx.Send/Schedule, Sharded.ScheduleActor
		return "event scheduling (" + named.Obj().Name() + "." + name + ")", true
	case orderedWriteMethods[name]:
		return "ordered output (" + name + ")", true
	}
	return "", false
}

// globalRandFuncs are the math/rand entry points that draw from the
// process-global (host-seeded) source. rand.New takes an explicit
// source and is NOT entropy — sim.NewRNG hands it the in-tree seeded
// generator to build the deterministic streams; detrand already
// polices where raw constructors may appear.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true,
}

// entropySource classifies a call as a host-entropy source: a wall
// clock read or a draw from an unseeded random source.
func (st *taintState) entropySource(call *ast.CallExpr) (origin, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return origin{}, false
	}
	pkgPath, name, qualified := pkgQualified(st.pkg.Info, sel)
	if !qualified {
		return origin{}, false
	}
	switch pkgPath {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return origin{kind: taintHost, pos: call.Pos(), what: "time." + name}, true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[name] {
			return origin{kind: taintHost, pos: call.Pos(), what: pkgPath + "." + name}, true
		}
	case "crypto/rand":
		if _, isType := st.pkg.Info.Uses[sel.Sel].(*types.TypeName); !isType {
			return origin{kind: taintHost, pos: call.Pos(), what: pkgPath + "." + name}, true
		}
	}
	return origin{}, false
}

// isSorter recognizes sorting calls: the stdlib sort/slices entry
// points and local helpers following the sortXxx convention.
func (st *taintState) isSorter(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		pkgPath, name, qualified := pkgQualified(st.pkg.Info, fun)
		return qualified && sortFuncs[pkgPath][name]
	case *ast.Ident:
		if _, isBuiltin := st.pkg.Info.Uses[fun].(*types.Builtin); isBuiltin {
			return false
		}
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// sanitize clears order taint from the argument's root object (its
// contents are now in a canonical order).
func (st *taintState) sanitize(e ast.Expr) {
	if root := rootIdent(e); root != nil {
		if obj := st.objectOf(root); obj != nil {
			var kept []origin
			for _, o := range st.vars[obj] {
				if o.kind == taintHost {
					kept = append(kept, o) // sorting does not launder entropy
				}
			}
			st.vars[obj] = kept
		}
	}
}

// displayName shortens a function key for messages:
// "(*iobt/internal/mesh.Network).Send" → "Network.Send".
func displayName(key string) string {
	s := strings.TrimPrefix(key, "(")
	s = strings.ReplaceAll(s, ")", "")
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
