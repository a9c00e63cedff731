package lint

import (
	"go/ast"
)

// MetricReg enforces registration discipline on the correctness
// registries: invariants (verify.Registry.Add) and
// checkpoint sections (checkpoint.Coordinator.Register) are wired up
// exactly once, at initialization, never per-iteration and never
// behind a condition — a conditionally-registered invariant is a check
// that silently never runs, and a loop-registered one inflates the
// audit counts (or double-fires handlers, the PR-1 registration bug).
// Mesh delivery handlers (mesh.Network.RegisterHandler) are
// legitimately registered per node in loops, so for those only
// conditional registration is flagged.
var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc: "invariant and snapshotter registries are populated unconditionally at init, " +
		"never inside loops or branches; optional components justify themselves with iobt:allow",
	Run: runMetricReg,
}

// regTarget classifies one registration method.
type regTarget struct {
	pkgPath, typeName, method string
	// loopSensitive: flag registration inside loops too (registries
	// where double-registration corrupts audit state).
	loopSensitive bool
	label         string
}

var regTargets = []regTarget{
	{"iobt/internal/verify", "Registry", "Add", true, "verify.Registry.Add"},
	{"iobt/internal/checkpoint", "Coordinator", "Register", true, "checkpoint.Coordinator.Register"},
	{"iobt/internal/mesh", "Network", "RegisterHandler", false, "mesh.Network.RegisterHandler"},
}

func runMetricReg(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			checkRegBody(p, fd.Body, nil)
		}
	}
}

// ctxKind marks one enclosing control construct.
type ctxKind int

const (
	inLoop ctxKind = iota
	inBranch
)

// checkRegBody walks stmts tracking the control context; entering a
// function literal resets it (the literal runs later, in whatever
// context its caller provides — judged at its own call site).
func checkRegBody(p *Pass, body *ast.BlockStmt, ctx []ctxKind) {
	var walk func(n ast.Node, ctx []ctxKind)
	walk = func(n ast.Node, ctx []ctxKind) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if x.Body != nil {
				checkRegBody(p, x.Body, nil)
			}
			return
		case *ast.ForStmt:
			walkChildren(x.Body, func(c ast.Node) { walk(c, append(ctx, inLoop)) })
			return
		case *ast.RangeStmt:
			walkChildren(x.Body, func(c ast.Node) { walk(c, append(ctx, inLoop)) })
			return
		case *ast.IfStmt:
			walk(x.Body, append(ctx, inBranch))
			if x.Else != nil {
				walk(x.Else, append(ctx, inBranch))
			}
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(c ast.Node) bool {
				if cc, isCase := c.(*ast.CaseClause); isCase {
					for _, s := range cc.Body {
						walk(s, append(ctx, inBranch))
					}
					return false
				}
				if cc, isComm := c.(*ast.CommClause); isComm {
					for _, s := range cc.Body {
						walk(s, append(ctx, inBranch))
					}
					return false
				}
				return true
			})
			return
		case *ast.CallExpr:
			checkRegCall(p, x, ctx)
			for _, arg := range x.Args {
				walk(arg, ctx)
			}
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, ctx) })
	}
	walkChildren(body, func(c ast.Node) { walk(c, ctx) })
}

// walkChildren invokes fn on each direct child node of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

func checkRegCall(p *Pass, call *ast.CallExpr, ctx []ctxKind) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return
	}
	named := receiverNamed(p.Info, sel)
	if named == nil {
		return
	}
	for _, t := range regTargets {
		if sel.Sel.Name != t.method || !namedIs(named, t.pkgPath, t.typeName) {
			continue
		}
		looped, branched := false, false
		for _, k := range ctx {
			switch k {
			case inLoop:
				looped = true
			case inBranch:
				branched = true
			}
		}
		switch {
		case looped && t.loopSensitive:
			p.Reportf(call.Pos(), "%s inside a loop registers repeatedly; build the full set first and register once at init", t.label)
		case branched:
			p.Reportf(call.Pos(), "%s is conditional; a skipped registration silently disables the check — register unconditionally or justify with //iobt:allow metricreg <reason>", t.label)
		}
		return
	}
}
