// Command deadcode lists exported functions and methods whose name appears
// as an identifier in no non-test .go file under the given root (default
// "."). Files under perfbench/ count as callers: that module calls cluster,
// operator and apps, although the root module's ./... never reaches it.
//
// It matches by name only: an unrelated identifier with the same name hides
// a dead function, and a method reached only through an interface the
// standard library declares (String, Error) is reported as dead. Each hit
// needs a grep before it is acted on, so this is a report, not a gate.
//
//	go run ./internal/tools/deadcode [root]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	hits, err := scan(root)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Println(h)
	}
	fmt.Printf("deadcode: %d exported functions named in no non-test file\n", len(hits))
}

// scan returns one "file:line: [Recv.]Name" line per unreferenced exported
// function or method under root, in file then line order.
func scan(root string) ([]string, error) {
	fset := token.NewFileSet()
	used := make(map[string]bool)
	var decls []*ast.FuncDecl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() {
					decls = append(decls, n)
				}
				// The declaring name is not a use; walk the rest.
				if n.Recv != nil {
					ast.Inspect(n.Recv, markUsed(used))
				}
				ast.Inspect(n.Type, markUsed(used))
				if n.Body != nil {
					ast.Inspect(n.Body, markUsed(used))
				}
				return false
			case *ast.Ident:
				used[n.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	type hit struct {
		pos  token.Position
		name string
	}
	var hits []hit
	for _, fd := range decls {
		if !used[fd.Name.Name] {
			hits = append(hits, hit{fset.Position(fd.Pos()), recvName(fd) + fd.Name.Name})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i].pos, hits[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s:%d: %s", filepath.ToSlash(h.pos.Filename), h.pos.Line, h.name)
	}
	return out, nil
}

func markUsed(used map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	}
}

// recvName renders a method's receiver type as "T." ("" for a function).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
