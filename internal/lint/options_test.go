package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// optionStructs are the config structs whose exported fields are the
// tree's options (DESIGN.md §6 "Options"), and the solver configs. The
// twentieth, fault.Harness, became the arguments of fault.Run.
var optionStructs = []string{
	"iobt/internal/asset.ChurnConfig",
	"iobt/internal/compose.AnnealSolver",
	"iobt/internal/compose.CSPSolver",
	"iobt/internal/compose.Goal",
	"iobt/internal/compose.RandomSolver",
	"iobt/internal/core.Mission",
	"iobt/internal/core.ShardMissionConfig",
	"iobt/internal/core.WorldConfig",
	"iobt/internal/discovery.Config",
	"iobt/internal/learn.FedConfig",
	"iobt/internal/learn.GenConfig",
	"iobt/internal/learn.GossipConfig",
	"iobt/internal/mesh.Config",
	"iobt/internal/mesh.GossipConfig",
	"iobt/internal/mesh.ShardScenario",
	"iobt/internal/service.ChaosConfig",
	"iobt/internal/service.Config",
	"iobt/internal/service.FloodConfig",
	"iobt/internal/sim.ShardedConfig",
	"iobt/internal/socialsense.GenConfig",
	"iobt/internal/track.Config",
	"iobt/internal/verify.Scenario",
}

// optionKeep lists the fault-injection seams TestOptionsHaveCallers
// accepts without a non-test setter outside their package, each with
// the reason it stays a field.
var optionKeep = []struct {
	fields []string
	reason string
}{
	{[]string{"iobt/internal/mesh.Config.LossBase"},
		"the channel-loss seam: protocol tests run a lossless radio for exact delivery counts, and the ARQ tests drive a lossy link"},
	{[]string{"iobt/internal/service.ChaosConfig.AtFrac"},
		"the crash-instant seam: the recovery tests pin a crash after a checkpoint, so the restart must resume from it byte-identically"},
	{[]string{
		"iobt/internal/mesh.ShardScenario.KillAt", "iobt/internal/mesh.ShardScenario.KillFrac",
		"iobt/internal/mesh.ShardScenario.JamFrom", "iobt/internal/mesh.ShardScenario.JamTo",
		"iobt/internal/mesh.ShardScenario.JamZone", "iobt/internal/mesh.ShardScenario.JamIntensity",
		"iobt/internal/mesh.ShardScenario.PartitionAt", "iobt/internal/mesh.ShardScenario.HealAt",
	}, "the sharded disruption schedule FuzzScenario's sharded leg drives through kills, jamming and a partition"},
	{[]string{"iobt/internal/mesh.Config.NeighborRefresh"},
		"cmd/iobtbench reads mesh.DefaultConfig().NeighborRefresh to count a mission's refresh ticks"},
}

// optionOneValue lists the fields TestOptionsHaveCallers accepts
// although every non-test write outside their package is one constant,
// each with the reason it stays a field.
var optionOneValue = []struct {
	field  string
	reason string
}{
	{"iobt/internal/mesh.Config.StepMobility",
		"core.NewWorld runs DefaultConfig's true, which no write outside mesh shows; the experiments' writes are all false"},
	{"iobt/internal/sim.ShardedConfig.Lookahead",
		"100ms at all three sites, one of them cmd/iobtbench/storm.go, which becomes a constant with the next benchmark change"},
}

// TestOptionsHaveCallers holds the tree to "an option needs two
// values". Every exported field of an optionStructs type is written —
// a composite-literal element, an assignment, an increment or an
// address taken — by some non-test file outside the struct's own
// package, or it is on optionKeep; and those writes are not all one
// and the same constant, or it is on optionOneValue. A composite
// literal that omits a field writes its zero value, and a write
// through a nested field (m.Goal.CoverageFrac = x) is a non-constant
// write to the outer one (Goal). A field that fails either rule is an
// unexported constant at the one value it has. Every exported *Config
// or *Solver struct under internal/ that has an exported field is on
// optionStructs.
func TestOptionsHaveCallers(t *testing.T) {
	pkgs := loadTree(t).Pkgs
	fields, writes := optionWrites(pkgs)
	if len(optionKeep) != 4 {
		t.Errorf("optionKeep holds %d seams, want the four DESIGN.md §6 names", len(optionKeep))
	}
	keep := map[string]bool{}
	for _, seam := range optionKeep {
		for _, f := range seam.fields {
			keep[f] = true
			if w := writes[f]; w == nil || w.set {
				t.Errorf("optionKeep field %s has a non-test setter or is no longer declared: drop it", f)
			}
		}
	}
	oneValue := map[string]bool{}
	for _, e := range optionOneValue {
		oneValue[e.field] = true
		if w := writes[e.field]; w == nil || !w.set || !w.single() {
			t.Errorf("optionOneValue field %s has no setter, two values or is no longer declared: drop it", e.field)
		}
	}
	for _, f := range fields {
		switch w := writes[f]; {
		case !w.set && !keep[f]:
			t.Errorf("option %s has no non-test setter outside its package: make it an unexported constant at its default", f)
		case w.set && w.single() && !oneValue[f]:
			t.Errorf("option %s is %s at every non-test write outside its package: make it an unexported constant", f, w)
		}
	}
	checkOptionStructsListed(t, pkgs)
	t.Logf("%d option fields in %d structs", len(fields), len(optionStructs))
}

// checkOptionStructsListed fails each exported *Config or *Solver
// struct under internal/ with an exported field that optionStructs
// lacks, and each optionStructs entry that names no declared struct.
func checkOptionStructsListed(t *testing.T, pkgs []*Package) {
	listed := map[string]bool{}
	for _, s := range optionStructs {
		listed[s] = false
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "iobt/internal/") {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			key := pkg.Path + "." + name
			st, isStruct := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			if !isStruct {
				continue
			}
			if _, isListed := listed[key]; isListed {
				listed[key] = true
				continue
			}
			if !token.IsExported(name) || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Solver") {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					t.Errorf("%s has exported fields but is not on optionStructs", key)
					break
				}
			}
		}
	}
	for s, declared := range listed {
		if !declared {
			t.Errorf("optionStructs entry %s is not a declared struct: drop it", s)
		}
	}
}

// fieldWrites is what the non-test files outside a field's package
// write to it: whether any names it (set), whether some write is not a
// constant, and the distinct constant values written, where nil stands
// for the zero value of a field that is not of basic type.
type fieldWrites struct {
	set      bool
	nonConst bool
	values   []constant.Value
}

// single reports whether every write is one and the same constant.
func (w *fieldWrites) single() bool { return !w.nonConst && len(w.values) == 1 }

func (w *fieldWrites) String() string {
	if w.values[0] == nil {
		return "the zero value"
	}
	return w.values[0].ExactString()
}

// add records a write of the value of e, an expression of pkg.
func (w *fieldWrites) add(pkg *Package, e ast.Expr) {
	tv := pkg.Info.Types[e]
	switch {
	case tv.Value != nil:
		w.addConst(tv.Value)
	case tv.IsNil():
		w.addConst(nil)
	default:
		w.nonConst = true
	}
}

// addConst records a write of v (nil: the zero value of a non-basic
// field).
func (w *fieldWrites) addConst(v constant.Value) {
	for _, have := range w.values {
		if have == nil && v == nil || have != nil && v != nil && constant.Compare(have, token.EQL, v) {
			return
		}
	}
	w.values = append(w.values, v)
}

// zeroValue is the constant zero value of a field of type t, nil when
// t is not of basic type.
func zeroValue(t types.Type) constant.Value {
	basic, isBasic := t.Underlying().(*types.Basic)
	switch {
	case !isBasic:
		return nil
	case basic.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	case basic.Info()&types.IsString != 0:
		return constant.MakeString("")
	default:
		return constant.MakeInt64(0)
	}
}

// optionWrites returns every option field, sorted, and for each what
// the non-test files outside the field's own package write to it.
func optionWrites(pkgs []*Package) (fields []string, writes map[string]*fieldWrites) {
	structs := map[string]bool{}
	for _, s := range optionStructs {
		structs[s] = true
	}
	writes = map[string]*fieldWrites{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			key := pkg.Path + "." + name
			if !structs[key] {
				continue
			}
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					fields = append(fields, key+"."+st.Field(i).Name())
					writes[key+"."+st.Field(i).Name()] = &fieldWrites{}
				}
			}
		}
	}
	sort.Strings(fields)
	for _, pkg := range pkgs {
		// option returns the key of t's struct when it is an option struct
		// declared outside pkg.
		option := func(t types.Type) string {
			named, isNamed := deref(t).(*types.Named)
			if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == pkg.Path {
				return ""
			}
			if key := named.Obj().Pkg().Path() + "." + named.Obj().Name(); structs[key] {
				return key
			}
			return ""
		}
		// field returns the option field e selects, "" when it selects
		// none.
		field := func(e ast.Expr) string {
			sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
			if !isSel {
				return ""
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return ""
			}
			// The field belongs to the struct reached after every
			// embedded hop but the last.
			recv := s.Recv()
			for _, idx := range s.Index()[:len(s.Index())-1] {
				recv = deref(recv).Underlying().(*types.Struct).Field(idx).Type()
			}
			if key := option(recv); key != "" {
				return key + "." + sel.Sel.Name
			}
			return ""
		}
		// write records a write to e of value (nil: not a constant), and
		// a non-constant write to every option field e is reached through.
		write := func(e, value ast.Expr) {
			if f := field(e); f != "" {
				writes[f].set = true
				if value != nil {
					writes[f].add(pkg, value)
				} else {
					writes[f].nonConst = true
				}
			}
			for sel, isSel := ast.Unparen(e).(*ast.SelectorExpr); isSel; sel, isSel = ast.Unparen(sel.X).(*ast.SelectorExpr) {
				if f := field(sel.X); f != "" {
					writes[f].set = true
					writes[f].nonConst = true
				}
			}
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					key := option(pkg.Info.Types[n].Type)
					if key == "" {
						return true
					}
					st := deref(pkg.Info.Types[n].Type).Underlying().(*types.Struct)
					named := map[string]bool{}
					for i, elt := range n.Elts {
						name, value := "", elt
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							name, value = kv.Key.(*ast.Ident).Name, kv.Value
						} else {
							name = st.Field(i).Name()
						}
						named[name] = true
						if w := writes[key+"."+name]; w != nil {
							w.set = true
							w.add(pkg, value)
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						if w := writes[key+"."+st.Field(i).Name()]; w != nil && !named[st.Field(i).Name()] {
							w.addConst(zeroValue(st.Field(i).Type()))
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var value ast.Expr
						if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
							if len(n.Rhs) == len(n.Lhs) {
								value = n.Rhs[i]
							}
						}
						write(lhs, value)
					}
				case *ast.IncDecStmt:
					write(n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X, nil)
					}
				}
				return true
			})
		}
	}
	return fields, writes
}

func deref(t types.Type) types.Type {
	if p, isPtr := t.(*types.Pointer); isPtr {
		return p.Elem()
	}
	return t
}
