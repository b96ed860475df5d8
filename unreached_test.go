package fred

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

const modulePath = "github.com/wafernet/fred"

// TestNoUnreachedExports keeps code that nothing runs out of the
// module. It fails on any exported top-level func, type, const or var
// declared in a non-test file under internal/ that no non-test file in
// the tree (cmd/, examples/, this package, bench/) names, apart from its
// own declaration, and on any exported method there whose name no
// non-test file selects, uses as a composite-literal key or declares in
// an interface. Such an export is checked only by its own tests: delete
// it, move it into a _test.go file, or reach it from a study.
func TestNoUnreachedExports(t *testing.T) {
	unreached, declared, err := unreachedExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if declared == 0 {
		t.Fatal("the scan found no exports under internal/")
	}
	if len(unreached) > 0 {
		t.Errorf("%d exports under internal/ that no non-test file names:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// TestUnreachedExportsRule pins the matching rule on a tiny tree, so
// the scan above cannot go blind and pass on everything. Of T's and G's
// methods, Method is selected, Iface declared in an interface and Keyed
// used as a composite-literal key; String is exempt, and Tested, which
// only a test and the skipped directories call, is reported.
func TestUnreachedExportsRule(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	tree := fstest.MapFS{
		"internal/a/a.go": src(`package a
const Selected, Bare, Unused = 1, 2, 3
type T struct{ Field int }
func (T) Method() {}
func Field() {}
func Method() {}
func Test() {}
var _ = Bare
type G[X any] struct{}
func (T) Iface() {}
func (*T) Keyed() {}
func (T) String() string { return "" }
func (*G[X]) Tested() {}
`),
		"internal/a/a_test.go": src(`package a
var _ = Unused + Test
func init() { new(G[int]).Tested() }`),
		"cmd/x/main.go": src(`package main
import "github.com/wafernet/fred/internal/a"
var _ = a.Selected
var _ a.T
func main() { var t a.T; t.Method() }
type I interface{ Iface() }
var _ = struct{ Keyed int }{Keyed: 1}
`),
		".hidden/h.go": src(`package h
import "github.com/wafernet/fred/internal/a"
var _ = a.Unused
func init() { new(a.G[int]).Tested() }`),
		"internal/a/testdata/d.go": src(`package d
import "github.com/wafernet/fred/internal/a"
var _ = a.Unused
func init() { new(a.G[int]).Tested() }`),
	}
	unreached, declared, err := unreachedExports(tree)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:2:23: " + modulePath + "/internal/a.Unused",
		"internal/a/a.go:5:6: " + modulePath + "/internal/a.Field",
		"internal/a/a.go:6:6: " + modulePath + "/internal/a.Method",
		"internal/a/a.go:7:6: " + modulePath + "/internal/a.Test",
		"internal/a/a.go:13:14: " + modulePath + "/internal/a.G.Tested",
	}
	if declared != 12 || fmt.Sprint(unreached) != fmt.Sprint(want) {
		t.Fatalf("declared %d, unreached\n\t%s\nwant 12,\n\t%s",
			declared, strings.Join(unreached, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// unreachedExports parses every non-test Go file in fsys, skipping
// hidden directories and testdata, and returns the exported top-level
// declarations and methods under internal/ that no non-test file names,
// as sorted "file:line:col: importpath.Name" lines (importpath.Type.Name
// for a method), with the number of exports it judged. Another package names an export by selecting it through its
// import path; its own package names it as a bare identifier. Methods
// are judged by name alone, since without go/types a selector's
// receiver is unknown: a method is reached when any non-test file
// selects its name, keys a composite literal with it or declares it in
// an interface (which covers interface satisfaction). exemptMethods
// lists the names the standard library calls.
func unreachedExports(fsys fs.FS) (unreached []string, declared int, err error) {
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(modulePath, path.Dir(p)), f})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Declarations: exported top-level names of non-test files under
	// internal/, keyed by import path and name, and their exported
	// methods, keyed by import path, receiver type and name.
	decls := map[string]*ast.Ident{}
	methods := map[string]*ast.Ident{}
	notUse := map[*ast.Ident]bool{} // identifiers that name no package-level object
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, modulePath+"/internal/") {
			continue
		}
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				decls[f.pkg+"."+id.Name] = id
				notUse[id] = true
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				} else if d.Name.IsExported() && !exemptMethods[d.Name.Name] {
					methods[f.pkg+"."+recvName(d.Recv)+"."+d.Name.Name] = d.Name
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}

	// Uses: pkg.Name through an import, or a bare Name in its own
	// package. Selected fields and methods, declared fields and method
	// names are not uses of a package-level name. A method name is used
	// wherever it is selected, keys a composite literal or is declared
	// in an interface, whatever the receiver.
	used := map[string]bool{}
	methodUsed := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUse[n.Sel] = true
				methodUsed[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					notUse[id] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							methodUsed[id.Name] = true
						}
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						methodUsed[id.Name] = true
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					notUse[n.Name] = true
				}
			case *ast.Ident:
				if !notUse[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	unused := map[string]*ast.Ident{}
	for name, id := range decls {
		if !used[name] {
			unused[name] = id
		}
	}
	for name, id := range methods {
		if !methodUsed[id.Name] {
			unused[name] = id
		}
	}
	names := make([]string, 0, len(unused))
	for name := range unused {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return unused[names[i]].Pos() < unused[names[j]].Pos() })
	for _, name := range names {
		unreached = append(unreached, fmt.Sprintf("%s: %s", fset.Position(unused[name].Pos()), name))
	}
	return unreached, len(decls) + len(methods), nil
}

// exemptMethods are method names that a standard-library interface
// calls (fmt, errors, net/http, encoding/json, io), so no file of the
// tree need name them.
var exemptMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"MarshalJSON": true, "Unwrap": true, "Read": true, "Write": true, "Close": true,
}

// recvName returns the name of a method's receiver type, without
// pointer or type parameters.
func recvName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name
}
