package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// configScope lists the serving-stack packages whose exported *Config
// structs are held to the "who sets this?" rule.
var configScope = []string{"/internal/serve", "/internal/adapt", "/internal/nids", "/internal/wire"}

// Unused returns the analyzer that asks of every exported name "who calls
// this?" — the question a reviewer otherwise answers by grep:
//
//   - an exported package-level name or method declared under internal/
//     (internal/chaos aside: it is test equipment, its callers are tests by
//     design) must be referenced from somewhere other than the _test.go
//     files of its own directory. cmd/, examples/, bench/, the package's own
//     non-test code and *other* packages' tests all count; a method that
//     satisfies an interface the module mentions is never reported (its
//     caller is the interface);
//   - an exported field of an exported ...Config struct in the serving
//     stack (serve, adapt, nids, wire) must be set — composite-literal key,
//     assignment, or address taken — by non-test code outside its package.
//     A knob no binary turns is a constant.
//
// It is a whole-module pass: references accumulate over every package and
// its tests, findings are reported from Finish, and a run over a subset of
// the module over-reports. Objects are keyed by declaration position, which
// a package and the re-check of it that includes its in-package tests share.
func Unused() *Analyzer {
	u := &unused{
		refs:   map[token.Pos]refKind{},
		set:    map[token.Pos]bool{},
		ifaces: map[*types.Interface]bool{},
	}
	return &Analyzer{
		Name:   "unused",
		Doc:    "exported internal/ names only their own tests reference; serving Config fields nothing sets",
		Run:    u.collect,
		Finish: u.finish,
	}
}

type refKind uint8

const (
	refOwnTest refKind = 1 << iota // from a _test.go file of the declaring directory
	refReal                        // from anywhere else
)

type unusedDecl struct {
	key    token.Pos
	pos    token.Position
	what   string      // "func Foo", "method T.M", "Config field T.F"
	method *types.Func // set for methods: the interface exemption needs the receiver
	field  bool
}

type unused struct {
	decls  []unusedDecl
	refs   map[token.Pos]refKind
	set    map[token.Pos]bool
	ifaces map[*types.Interface]bool
}

func (u *unused) collect(p *Pass) {
	pkg := p.Pkg
	if strings.Contains(pkg.Path, "/internal/") && !strings.HasSuffix(pkg.Path, "/internal/chaos") || strings.HasPrefix(pkg.Path, "vet.test/") {
		u.declare(pkg)
	}
	u.walk(pkg, pkg.Path, false)
	for _, t := range pkg.Tests {
		u.walk(t, pkg.Path, true)
	}
}

// declare records the exported declarations of one production package.
func (u *unused) declare(pkg *Package) {
	inConfigScope := strings.HasPrefix(pkg.Path, "vet.test/")
	for _, s := range configScope {
		inConfigScope = inConfigScope || strings.HasSuffix(pkg.Path, s)
	}
	add := func(id *ast.Ident, what string, field bool) {
		if !id.IsExported() {
			return
		}
		d := unusedDecl{key: id.Pos(), pos: pkg.Fset.Position(id.Pos()), what: what + id.Name, field: field}
		if fn, ok := pkg.Info.Defs[id].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			recv := receiverNamedType(fn.Type().(*types.Signature).Recv().Type())
			if recv == nil {
				return
			}
			d.method, d.what = fn, "method "+recv.Obj().Name()+"."+id.Name
		}
		u.decls = append(u.decls, d)
	}
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, "func ", false)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, decl.Tok.String()+" ", false)
						}
					case *ast.TypeSpec:
						add(spec.Name, "type ", false)
						st, ok := spec.Type.(*ast.StructType)
						if !ok || !inConfigScope || !spec.Name.IsExported() || !strings.HasSuffix(spec.Name.Name, "Config") {
							continue
						}
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								add(id, "Config field "+spec.Name.Name+".", true)
							}
						}
					}
				}
			}
		}
	}
}

// walk records what the files of one unit (a package, or one of its test
// packages) reference and set. home is the import path of the directory the
// unit lives in: a test's reference to a home object is the only kind that
// does not count as a caller.
func (u *unused) walk(unit *Package, home string, test bool) {
	info := unit.Info
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			u.ifaces[it] = true
		}
	}
	// An imported package's interfaces are mentioned by importing it: fmt
	// calls String and sort.Sort calls Less without the caller ever
	// writing fmt.Stringer or sort.Interface.
	for _, imp := range unit.Types.Imports() {
		for _, name := range imp.Scope().Names() {
			if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					u.ifaces[it] = true
				}
			}
		}
	}
	sets := func(e ast.Expr) {
		var id *ast.Ident
		switch e := unparen(e).(type) {
		case *ast.Ident:
			id = e // composite-literal key
		case *ast.SelectorExpr:
			id = e.Sel
		}
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && !test && v.Pkg() != nil && v.Pkg().Path() != home {
			u.set[v.Pos()] = true
		}
	}
	for _, f := range unit.Syntax {
		for _, decl := range f.Decls {
			// A declaration is not its own caller: recursion and the
			// receiver of a type's own methods do not count.
			self, recv := token.NoPos, ast.Node(nil)
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = fd.Name.Pos()
				if fd.Recv != nil {
					recv = fd.Recv
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FieldList:
					return ast.Node(n) != recv
				case *ast.Ident:
					obj := info.Uses[n]
					if obj == nil || obj.Pkg() == nil || obj.Pos() == self {
						return true
					}
					if test && obj.Pkg().Path() == home {
						u.refs[obj.Pos()] |= refOwnTest
					} else {
						u.refs[obj.Pos()] |= refReal
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							sets(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sets(lhs)
					}
				case *ast.IncDecStmt:
					sets(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						sets(n.X)
					}
				}
				return true
			})
		}
	}
}

// satisfiesInterface reports whether fn is (part of) how its receiver type
// implements some interface the module mentions.
func (u *unused) satisfiesInterface(fn *types.Func) bool {
	recv := receiverNamedType(fn.Type().(*types.Signature).Recv().Type())
	for it := range u.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			// A generic receiver is not instantiated here: a name match
			// is enough to stay quiet.
			if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

func (u *unused) finish(report func(Diagnostic)) {
	for _, d := range u.decls {
		switch refs := u.refs[d.key]; {
		case d.field:
			if !u.set[d.key] {
				report(newDiagnostic("unused", d.pos, "%s is set by no non-test code outside its package: make it a constant or unexport it", d.what))
			}
		case refs&refReal != 0 || d.method != nil && u.satisfiesInterface(d.method):
		case refs == 0:
			report(newDiagnostic("unused", d.pos, "exported %s is referenced by nothing: delete it", d.what))
		default:
			report(newDiagnostic("unused", d.pos, "exported %s is referenced only by its own package's tests: delete it with them, or move it into a _test.go file", d.what))
		}
	}
}
