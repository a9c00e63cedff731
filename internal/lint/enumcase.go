package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// EnumCase enforces switch exhaustiveness over the repo's domain
// enums: fault.Kind, fault.Selector, asset.Class, asset.Affiliation,
// core.HealthState, core.CommandModel, trust.Evidence, alloc.Class,
// alloc.Tier, geo.TerrainKind, discovery.Methods — and
// any other named integer type with two or more package-level
// constants, which is how every one of those enums is declared. A
// switch over such a type must either cover every declared constant or
// carry an explicit default clause. Without this, adding an enum
// constant (a new fault kind, a new health state) silently falls
// through the String method, the codec, and every dispatch switch —
// the add-a-variant bug class, caught at build time instead of as a
// blank label in a report three PRs later.
var EnumCase = &Analyzer{
	Name: "enumcase",
	Doc: "switches over domain enums must cover every declared constant or say `default:`; " +
		"adding a variant without updating its switches is a finding",
	Run: runEnumCase,
}

// enumConstants returns the package-level constants of the named type,
// declared in the type's own package, keyed by value with names
// aggregated (aliases for the same value count as one case). It
// returns nil when the type does not look like a domain enum: fewer
// than two constants, or a non-integer underlying type.
func enumConstants(named *types.Named) map[string][]string {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	basic, isBasic := named.Underlying().(*types.Basic)
	if !isBasic || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	scope := obj.Pkg().Scope()
	byValue := map[string][]string{}
	n := 0
	for _, name := range scope.Names() {
		c, isConst := scope.Lookup(name).(*types.Const)
		if !isConst || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		byValue[key] = append(byValue[key], name)
		n++
	}
	if n < 2 {
		return nil
	}
	return byValue
}

func runEnumCase(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, isSwitch := n.(*ast.SwitchStmt)
			if !isSwitch || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(p, sw)
			return true
		})
	}
}

func checkEnumSwitch(p *Pass, sw *ast.SwitchStmt) {
	t := p.TypeOf(sw.Tag)
	if t == nil {
		return
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return
	}
	constants := enumConstants(named)
	if constants == nil {
		return
	}

	covered := map[string]bool{}
	for _, clause := range sw.Body.List {
		cc, isCase := clause.(*ast.CaseClause)
		if !isCase {
			continue
		}
		if cc.List == nil {
			return // explicit default: the switch owns its fallback
		}
		for _, e := range cc.List {
			tv, known := p.Info.Types[e]
			if !known || tv.Value == nil {
				// Non-constant case expression: the switch is doing
				// dynamic matching; exhaustiveness does not apply.
				return
			}
			covered[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	for val, names := range constants {
		if !covered[val] {
			sort.Strings(names)
			missing = append(missing, names[0])
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	typeName := named.Obj().Name()
	if pkg := named.Obj().Pkg(); pkg != nil {
		typeName = pkg.Name() + "." + typeName
	}
	p.Reportf(sw.Pos(),
		"switch over %s is missing %s and has no default; cover every constant or add an explicit default so new variants cannot fall through silently",
		typeName, strings.Join(missing, ", "))
}
