package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// optionStructs are the config structs whose exported fields are the
// tree's options (DESIGN.md §6 "Options"). The twentieth, fault.Harness,
// became the arguments of fault.Run.
var optionStructs = []string{
	"iobt/internal/asset.ChurnConfig",
	"iobt/internal/compose.Goal",
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

// TestOptionsHaveCallers holds the tree to "an option needs a non-test
// caller": every exported field of an optionStructs type is written —
// a composite-literal element, an assignment, an increment or an
// address taken — by some non-test file outside the struct's own
// package, or it is on optionKeep. A field only tests set is an
// unexported constant at its default instead.
func TestOptionsHaveCallers(t *testing.T) {
	fields, set := optionWrites(loadTree(t).Pkgs)
	if len(optionKeep) != 4 {
		t.Errorf("optionKeep holds %d seams, want the four DESIGN.md §6 names", len(optionKeep))
	}
	keep := map[string]bool{}
	for _, seam := range optionKeep {
		for _, f := range seam.fields {
			keep[f] = true
			if _, declared := set[f]; !declared || set[f] {
				t.Errorf("optionKeep field %s has a non-test setter or is no longer declared: drop it", f)
			}
		}
	}
	for _, f := range fields {
		if !set[f] && !keep[f] {
			t.Errorf("option %s has no non-test setter outside its package: make it an unexported constant at its default", f)
		}
	}
	t.Logf("%d option fields in %d structs", len(fields), len(optionStructs))
}

// optionWrites returns every option field, sorted, and for each whether
// a non-test file outside the field's own package writes it.
func optionWrites(pkgs []*Package) (fields []string, set map[string]bool) {
	structs := map[string]bool{}
	for _, s := range optionStructs {
		structs[s] = true
	}
	set = map[string]bool{}
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
					set[key+"."+st.Field(i).Name()] = false
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
		write := func(e ast.Expr) {
			sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
			if !isSel {
				return
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			// The field belongs to the struct reached after every
			// embedded hop but the last.
			recv := s.Recv()
			for _, idx := range s.Index()[:len(s.Index())-1] {
				recv = deref(recv).Underlying().(*types.Struct).Field(idx).Type()
			}
			if key := option(recv); key != "" {
				set[key+"."+sel.Sel.Name] = true
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
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							set[key+"."+kv.Key.(*ast.Ident).Name] = true
						} else {
							set[key+"."+st.Field(i).Name()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}
	return fields, set
}

func deref(t types.Type) types.Type {
	if p, isPtr := t.(*types.Pointer); isPtr {
		return p.Elem()
	}
	return t
}
