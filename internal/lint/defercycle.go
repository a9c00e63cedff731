package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeferCycle flags defer statements and lock acquisitions inside loops
// of //iobt:hot functions. A defer in a per-event loop does not run per
// iteration — it stacks one record per iteration and fires them all at
// function exit, which is both a latency cliff and (for locks) a
// correctness trap: every iteration's lock is still held when the next
// one is taken. A per-iteration mutex acquisition in a hot loop is a
// serialization point the profile attributes to runtime internals
// rather than the loop body; the fix is to hoist the lock around the
// loop, batch the critical section, or restructure so the loop owns
// its data. Intentional per-element handoffs (a mailbox swap per lane
// per window) are waived where they happen with //iobt:allow.
var DeferCycle = &Analyzer{
	Name: "defercycle",
	Doc:  "//iobt:hot functions must not defer or acquire sync.Mutex/RWMutex locks inside per-event loops; defers stack until function exit and per-iteration locks serialize the hot loop",
	Run:  runDeferCycle,
}

func runDeferCycle(p *Pass) {
	reportMisplaced(p, map[string]string{noteHot: "a function declaration"})
	for _, f := range p.Files {
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
			checkHotLoops(p, fd.Body)
		}
	}
}

// checkHotLoops walks a hot body tracking whether the current node sits
// inside a loop. A function literal resets the loop context — its body
// executes when the closure runs, not per iteration of the enclosing
// loop — but is still walked for loops of its own.
func checkHotLoops(p *Pass, body *ast.BlockStmt) {
	var visit func(n ast.Node, inLoop bool)
	children := func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				visit(c, inLoop)
			}
			return false
		})
	}
	visit = func(n ast.Node, inLoop bool) {
		switch x := n.(type) {
		case *ast.FuncLit:
			visit(x.Body, false)
		case *ast.ForStmt:
			if x.Init != nil {
				visit(x.Init, inLoop)
			}
			if x.Cond != nil {
				visit(x.Cond, inLoop)
			}
			if x.Post != nil {
				visit(x.Post, inLoop)
			}
			visit(x.Body, true)
		case *ast.RangeStmt:
			if x.X != nil {
				visit(x.X, inLoop)
			}
			visit(x.Body, true)
		case *ast.DeferStmt:
			if inLoop {
				p.Reportf(x.Pos(), "defer inside a per-event loop stacks one record per iteration and runs them all at function exit; hoist it or call explicitly")
			}
			children(n, inLoop)
		case *ast.CallExpr:
			if inLoop {
				if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel {
					if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
						named := receiverNamed(p.Info, sel)
						if namedIs(named, "sync", "Mutex") || namedIs(named, "sync", "RWMutex") {
							p.Reportf(x.Pos(), "acquires %s inside a per-event loop; hoist the lock around the loop or batch the critical section",
								types.ExprString(sel.X))
						}
					}
				}
			}
			children(n, inLoop)
		default:
			children(n, inLoop)
		}
	}
	visit(body, false)
}
