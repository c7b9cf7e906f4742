// Command doccheck fails (exit 1) when a Go package directory contains
// exported identifiers without doc comments, or lacks a package comment.
// CI runs it over every package directory under internal/, as listed by
// go list -f '{{.Dir}}' ./internal/..., so a new package cannot drop out of
// the check and every internal API surface stays fully documented.
//
// Usage: go run ./scripts/doccheck <pkgdir> [pkgdir...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <pkgdir> [pkgdir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		problems, err := check(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers\n", bad)
		os.Exit(1)
	}
}

// check parses every non-test Go file of one directory and reports exported
// declarations lacking doc comments.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || hasUnexportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						problems = append(problems,
							fmt.Sprintf("%s: exported %s %s is undocumented", pos(d), what, funcName(d)))
					}
				case *ast.GenDecl:
					problems = append(problems, checkGenDecl(d, pos)...)
				}
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return problems, nil
}

// hasUnexportedRecv reports whether a method's receiver type is
// unexported — such methods are internal details even when the method name
// is exported (they typically satisfy exported interfaces).
func hasUnexportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return !ident.IsExported()
	}
	return false
}

// funcName renders "Type.Method" for methods, "Func" otherwise.
func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if ident, ok := t.(*ast.Ident); ok {
			return ident.Name + "." + d.Name.Name
		}
	}
	return d.Name.Name
}

// checkGenDecl reports undocumented exported consts, vars, and types. A doc
// comment on the grouped declaration covers all of its specs, matching the
// convention used for const blocks.
func checkGenDecl(d *ast.GenDecl, pos func(ast.Node) string) []string {
	var problems []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				problems = append(problems,
					fmt.Sprintf("%s: exported type %s is undocumented", pos(s), s.Name.Name))
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					problems = append(problems,
						fmt.Sprintf("%s: exported %s %s is undocumented", pos(s), kind(d.Tok), name.Name))
				}
			}
		}
	}
	return problems
}

// kind names a GenDecl token for the report.
func kind(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	default:
		return tok.String()
	}
}
