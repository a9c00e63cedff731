package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop enforces error discipline on the recovery-critical paths: an
// error returned by a Restore method (the checkpoint.Snapshotter
// contract), checkpoint.Coordinator.RestoreLast, verify.ParseScenario,
// a codec Decode* helper, or a mesh delivery call (Network.Send /
// SendDirect) must not be discarded — not by calling as a
// bare statement, not by assigning to the blank identifier. A dropped
// restore error is a failover that silently resumes from garbage; a
// dropped send error is a message the conservation invariant will
// count as lost with no record of why. Handle the error, return it, or
// waive the site with a reasoned //iobt:allow errdrop comment.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "errors from Restore, RestoreLast, ParseScenario, Decode* helpers, and mesh " +
		"sends must be handled, returned, or explicitly waived — never discarded",
	Run: runErrDrop,
}

// errdropMethods are (package, type, method) triples whose final error
// result is load-bearing.
var errdropMethods = []struct {
	pkgPath, typeName, method string
}{
	{"iobt/internal/checkpoint", "Coordinator", "RestoreLast"},
	{"iobt/internal/mesh", "Network", "Send"},
	{"iobt/internal/mesh", "Network", "SendDirect"},
}

// monitoredCall reports whether call's callee is under errdrop
// discipline and returns a label for the message.
func monitoredCall(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(p.Info, call)
	if fn == nil {
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return "", false
	}

	if recv := sig.Recv(); recv != nil {
		// Any Restore([]byte) error — the Snapshotter contract —
		// regardless of receiver type.
		if fn.Name() == "Restore" && sig.Params().Len() == 1 &&
			types.TypeString(sig.Params().At(0).Type(), nil) == "[]byte" {
			return recvLabel(recv) + ".Restore", true
		}
		for _, m := range errdropMethods {
			t := recv.Type()
			if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			named, isNamed := t.(*types.Named)
			if isNamed && fn.Name() == m.method && namedIs(named, m.pkgPath, m.typeName) {
				return m.typeName + "." + m.method, true
			}
		}
		return "", false
	}

	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch {
	case pkg.Path() == "iobt/internal/verify" && fn.Name() == "ParseScenario":
		return "verify.ParseScenario", true
	case strings.HasPrefix(fn.Name(), "Decode") && strings.HasPrefix(pkg.Path(), "iobt/"):
		return pkg.Name() + "." + fn.Name(), true
	}
	return "", false
}

func recvLabel(recv *types.Var) string {
	t := recv.Type()
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return "receiver"
}

func runErrDrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, isCall := ast.Unparen(x.X).(*ast.CallExpr); isCall {
					if label, monitored := monitoredCall(p, call); monitored {
						p.Reportf(call.Pos(),
							"result of %s is discarded; the error is the only signal this path failed — handle it, return it, or waive with //iobt:allow errdrop <reason>", label)
					}
				}
			case *ast.GoStmt:
				if label, monitored := monitoredCall(p, x.Call); monitored {
					p.Reportf(x.Call.Pos(),
						"go %s discards the returned error; collect it in the goroutine and surface it", label)
				}
			case *ast.DeferStmt:
				if label, monitored := monitoredCall(p, x.Call); monitored {
					p.Reportf(x.Call.Pos(),
						"defer %s discards the returned error; wrap it in a closure that checks the result", label)
				}
			case *ast.AssignStmt:
				checkBlankAssign(p, x)
			}
			return true
		})
	}
}

// checkBlankAssign flags `_ = call()` and `v, _ := call()` where the
// blank lands on a monitored call's error result.
func checkBlankAssign(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		// Parallel assignment pairs lhs[i] with rhs[i]; an error can
		// only be blanked when its own rhs is a monitored call.
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
				continue
			}
			reportBlanked(p, rhs)
		}
		return
	}
	// Single rhs: the error is the LAST result; it is discarded when
	// the last lhs is blank.
	if len(as.Lhs) == 0 || !isBlank(as.Lhs[len(as.Lhs)-1]) {
		return
	}
	reportBlanked(p, as.Rhs[0])
}

func reportBlanked(p *Pass, rhs ast.Expr) {
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	if !isCall {
		return
	}
	if label, monitored := monitoredCall(p, call); monitored {
		p.Reportf(call.Pos(),
			"error from %s is assigned to _; a silent failure here corrupts recovery — handle it, return it, or waive with //iobt:allow errdrop <reason>", label)
	}
}

func isBlank(e ast.Expr) bool {
	id, isIdent := ast.Unparen(e).(*ast.Ident)
	return isIdent && id.Name == "_"
}
