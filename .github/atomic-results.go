//go:build ignore

// atomic-results fails when non-test Go code uses the result of a
// sync/atomic Or or And: the functions (atomic.OrUint64, atomic.AndInt32, …)
// or the Or and And methods of the atomic integer types. Go 1.24.0 on amd64
// can miscompile such a use — the compare-and-swap loop the call lowers to
// overwrites a register still live after it — and a -race build hides it.
// A call whose result is dropped (an expression, go or defer statement) is
// fine. Any method named Or or And counts, whatever its receiver: the check
// parses, it does not type-check.
//
//	go run .github/atomic-results.go [dir]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var atomicFunc = regexp.MustCompile(`^(Or|And)(Int32|Int64|Uint32|Uint64|Uintptr)$`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, pos := range usedResults(f) {
			fmt.Printf("%s: result of a sync/atomic Or/And used; call it as a statement\n", fset.Position(pos))
			found++
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if found > 0 {
		os.Exit(1)
	}
}

// usedResults returns the position of every atomic Or/And call in f whose
// parent does not drop its result.
func usedResults(f *ast.File) []token.Pos {
	pkgs := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		pkgs[local] = path
	}
	var out []token.Pos
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok && isOrAnd(call, pkgs) {
			switch stack[len(stack)-1].(type) {
			case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
			default:
				out = append(out, call.Pos())
			}
		}
		stack = append(stack, n)
		return true
	})
	return out
}

// isOrAnd reports whether call is atomic.{Or,And}<Type>(…) or a method call
// named Or or And.
func isOrAnd(call *ast.CallExpr, pkgs map[string]string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok && pkgs[id.Name] != "" {
		return pkgs[id.Name] == "sync/atomic" && atomicFunc.MatchString(sel.Sel.Name)
	}
	return sel.Sel.Name == "Or" || sel.Sel.Name == "And"
}
