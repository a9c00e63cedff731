package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdent matches a backticked pkg.Name or pkg.Type.Member, with
// optional call parentheses; pkg is matched against the tree's package
// names and Name must be exported.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z]\\w*)(?:\\.(\\w+))?(?:\\(\\))?`")

// historyMark on the line directly above a table exempts the table:
// its rows record what a change removed.
const historyMark = "<!-- history -->"

// TestDocIdentifiers holds the prose to live code on TestTreeReachable's
// tree load: every backticked identifier of a repo package in DESIGN.md,
// README.md and EXPERIMENTS.md names a declaration, or a field or method
// of one, in a non-test file, unless it sits in a history table.
func TestDocIdentifiers(t *testing.T) {
	byName := map[string]*Package{}
	for _, pkg := range loadTree(t).Pkgs {
		if pkg.Types.Name() != "main" {
			byName[pkg.Types.Name()] = pkg
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		history := false
		for i, line := range strings.Split(string(raw), "\n") {
			if history && strings.HasPrefix(line, "|") {
				continue
			}
			history = strings.TrimSpace(line) == historyMark
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				if pkg := byName[m[1]]; pkg != nil && !declares(pkg, m[2], m[3]) {
					t.Errorf("%s:%d: %s names nothing declared in %s", doc, i+1, m[0], pkg.Path)
				}
			}
		}
	}
}

// declares reports whether pkg's non-test files declare name, and when
// member is set, a field or method member of the type name.
func declares(pkg *Package, name, member string) bool {
	live := func(obj types.Object) bool {
		return obj != nil && !strings.HasSuffix(pkg.Fset.Position(obj.Pos()).Filename, "_test.go")
	}
	obj := pkg.Types.Scope().Lookup(name)
	if !live(obj) || member == "" {
		return live(obj)
	}
	tn, isType := obj.(*types.TypeName)
	if !isType {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, member)
	return live(m)
}
