package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// This file indexes the annotations the ownership analyzers (shardown,
// gocapture) and the hot-path analyzers (hotalloc, defercycle) key off.
// Annotations are doc comments on declarations — the contract is stated
// where the state lives, and the analyzers enforce it:
//
//	//iobt:actor-state    on a type declaration: values are owner-only
//	                      actor state — only events executing on the
//	                      owning actor may touch them (shardown), and
//	                      scheduled closures may capture them because
//	                      ownership rides along with the event
//	                      (gocapture).
//	//iobt:frozen         on a type declaration: written only during
//	                      single-threaded setup, read-only while the
//	                      engine runs, so workers share it safely and
//	                      closures may capture it (gocapture).
//	//iobt:hot            on a function: the body executes per simulation
//	                      event, so the hotpath analyzers (hotalloc,
//	                      defercycle) hold it — and, through
//	                      bottom-up allocation summaries, every helper it
//	                      calls — to the zero-allocation discipline.
//
// An annotation that is not anchored to a declaration of the right kind
// is itself a finding (reported by the owning analyzer), so the
// vocabulary cannot rot silently.

const (
	noteActorState = "actor-state"
	noteFrozen     = "frozen"
	noteHot        = "hot"
)

// noteRe matches one annotation comment line.
var noteRe = regexp.MustCompile(`^//\s*iobt:(actor-state|frozen|hot)\b`)

// A noteSite is one annotation comment that could not be anchored to a
// declaration of the kind it applies to.
type noteSite struct {
	name string
	pos  token.Pos
}

// annotations is the program-wide annotation index. Keys are
// universe-independent strings, because each analyzed package holds its
// own types.Object for anything imported:
//
//	types: "pkgpath.TypeName"
//	funcs: types.Func.FullName()
type annotations struct {
	types map[string]map[string]bool
	funcs map[string]map[string]bool
	// misplaced collects, per package path, annotations without a valid
	// anchor (wrong declaration kind, or no declaration at all).
	misplaced map[string][]noteSite
}

func newAnnotations() *annotations {
	return &annotations{
		types:     map[string]map[string]bool{},
		funcs:     map[string]map[string]bool{},
		misplaced: map[string][]noteSite{},
	}
}

func addNote(m map[string]map[string]bool, key, note string) {
	set := m[key]
	if set == nil {
		set = map[string]bool{}
		m[key] = set
	}
	set[note] = true
}

// groupNotes extracts the annotation comments from comment groups,
// skipping nil groups.
func groupNotes(groups ...*ast.CommentGroup) []*ast.Comment {
	var out []*ast.Comment
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if noteRe.MatchString(c.Text) {
				out = append(out, c)
			}
		}
	}
	return out
}

func noteName(c *ast.Comment) string {
	return noteRe.FindStringSubmatch(c.Text)[1]
}

// scanNotes builds the annotation index over all loaded packages,
// anchoring each annotation comment to its declaration and recording
// the ones that anchor to nothing (or to the wrong declaration kind).
func scanNotes(pkgs []*Package) *annotations {
	notes := newAnnotations()
	for _, pkg := range pkgs {
		scanPackageNotes(notes, pkg)
	}
	return notes
}

func scanPackageNotes(notes *annotations, pkg *Package) {
	consumed := map[token.Pos]bool{}
	anchor := func(comments []*ast.Comment, valid map[string]bool, key string, target map[string]map[string]bool) {
		for _, c := range comments {
			consumed[c.Pos()] = true
			name := noteName(c)
			if valid[name] && key != "" {
				addNote(target, key, name)
			} else {
				notes.misplaced[pkg.Path] = append(notes.misplaced[pkg.Path], noteSite{name: name, pos: c.Pos()})
			}
		}
	}

	typeNotes := map[string]bool{noteActorState: true, noteFrozen: true}
	funcNotes := map[string]bool{noteHot: true}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := ""
				if fn, isFn := pkg.Info.Defs[d.Name].(*types.Func); isFn {
					key = funcKey(fn)
				}
				anchor(groupNotes(d.Doc), funcNotes, key, notes.funcs)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					// Annotations on imports/consts/vars anchor to nothing.
					anchor(groupNotes(d.Doc), nil, "", nil)
					continue
				}
				// A single-spec type declaration usually carries its doc on
				// the GenDecl.
				declDoc := d.Doc
				if len(d.Specs) != 1 {
					anchor(groupNotes(d.Doc), nil, "", nil)
					declDoc = nil
				}
				for _, spec := range d.Specs {
					ts, isType := spec.(*ast.TypeSpec)
					if !isType {
						continue
					}
					anchor(groupNotes(declDoc, ts.Doc, ts.Comment), typeNotes, pkg.Path+"."+ts.Name.Name, notes.types)
				}
			}
		}
	}

	// Annotation comments floating anywhere else (inside bodies, on
	// struct fields, between declarations) anchor to nothing.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if noteRe.MatchString(c.Text) && !consumed[c.Pos()] {
					notes.misplaced[pkg.Path] = append(notes.misplaced[pkg.Path], noteSite{name: noteName(c), pos: c.Pos()})
				}
			}
		}
	}
}

// typeHas reports whether the named type (or the element of a pointer
// to it) carries the annotation.
func (a *annotations) typeHas(t types.Type, note string) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return a.types[named.Obj().Pkg().Path()+"."+named.Obj().Name()][note]
}

// funcHas reports whether the declared function carries the annotation.
func (a *annotations) funcHas(fn *types.Func, note string) bool {
	if fn == nil {
		return false
	}
	return a.funcs[funcKey(fn)][note]
}

// reportMisplaced emits findings for annotations in this package that
// anchor to nothing valid; which is reported by which analyzer follows
// annotation ownership (shardown owns the type notes, hotalloc the hot
// note).
func reportMisplaced(p *Pass, owned map[string]string) {
	for _, site := range p.Prog.notes.misplaced[p.Path] {
		want, isOwned := owned[site.name]
		if !isOwned {
			continue
		}
		p.Reportf(site.pos, "iobt:%s annotation must sit on %s", site.name, want)
	}
}
