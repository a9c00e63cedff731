package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// This file indexes the shard-safety annotations the shardsafe analyzer
// family (shardown, gocapture, barrierstate) keys off. Annotations are
// doc comments on declarations — the contract is stated where the state
// lives, and the analyzers enforce it:
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
//	//iobt:barrier-only   on a struct field: shard-local engine state
//	                      (heap, mailbox, clock) touched only between
//	                      barriers, by the owning worker, or under a
//	                      mutex of the same struct (barrierstate).
//	//iobt:barrier        on a function: declares barrier/owning-worker
//	                      context, licensing access to barrier-only
//	                      fields (barrierstate).
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
	noteActorState  = "actor-state"
	noteFrozen      = "frozen"
	noteBarrierOnly = "barrier-only"
	noteBarrier     = "barrier"
	noteHot         = "hot"
)

// noteRe matches one annotation comment line.
var noteRe = regexp.MustCompile(`^//\s*iobt:(actor-state|frozen|barrier-only|barrier|hot)\b`)

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
//	types:  "pkgpath.TypeName"
//	fields: "pkgpath.TypeName.field"
//	funcs:  types.Func.FullName()
type annotations struct {
	types  map[string]map[string]bool
	fields map[string]map[string]bool
	funcs  map[string]map[string]bool
	// misplaced collects, per package path, annotations without a valid
	// anchor (wrong declaration kind, or no declaration at all).
	misplaced map[string][]noteSite
}

func newAnnotations() *annotations {
	return &annotations{
		types:     map[string]map[string]bool{},
		fields:    map[string]map[string]bool{},
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
	fieldNotes := map[string]bool{noteBarrierOnly: true}
	funcNotes := map[string]bool{noteBarrier: true, noteHot: true}

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
					typeKey := pkg.Path + "." + ts.Name.Name
					anchor(groupNotes(declDoc, ts.Doc, ts.Comment), typeNotes, typeKey, notes.types)
					st, isStruct := ts.Type.(*ast.StructType)
					if !isStruct || st.Fields == nil {
						continue
					}
					for _, field := range st.Fields.List {
						comments := groupNotes(field.Doc, field.Comment)
						if len(comments) == 0 {
							continue
						}
						if len(field.Names) == 0 {
							anchor(comments, nil, "", nil) // embedded field: no name to key on
							continue
						}
						for _, c := range comments {
							consumed[c.Pos()] = true
							name := noteName(c)
							if !fieldNotes[name] {
								notes.misplaced[pkg.Path] = append(notes.misplaced[pkg.Path], noteSite{name: name, pos: c.Pos()})
								continue
							}
							for _, fieldName := range field.Names {
								addNote(notes.fields, typeKey+"."+fieldName.Name, name)
							}
						}
					}
				}
			}
		}
	}

	// Annotation comments floating anywhere else (inside bodies, between
	// declarations) anchor to nothing.
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

// fieldHas reports whether a field selection's target carries the
// annotation; recv is the receiver type of the selection.
func (a *annotations) fieldHas(recv types.Type, field *types.Var, note string) bool {
	if recv == nil || field == nil {
		return false
	}
	if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	return a.fields[key][note]
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
// annotation ownership (shardown owns the type notes, barrierstate the
// engine notes).
func reportMisplaced(p *Pass, owned map[string]string) {
	for _, site := range p.Prog.notes.misplaced[p.Path] {
		want, isOwned := owned[site.name]
		if !isOwned {
			continue
		}
		p.Reportf(site.pos, "iobt:%s annotation must sit on %s", site.name, want)
	}
}
