package draid_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// belowTheSeam lists the only non-test code that may name the simulation
// engine (sim.Engine, sim.NewEngine) or read Cluster.Eng: the simulation's
// own packages and its adapters, and the few places above them that exist
// only on the simulation — a directory ("dir/"), a file, or one function of
// a file ("file.go:Func"). Everything else runs on backend.Runtime/Runner,
// so it runs on either backend (DESIGN.md "Backend architecture").
var belowTheSeam = []string{
	"internal/sim/", "internal/simnet/", "internal/ssd/", "internal/cpu/",
	"internal/recon/", "internal/trace/", "internal/cluster/",
	"internal/backend/simadapter.go",
	"internal/core/host.go", "internal/core/offload.go", "internal/core/fabric.go",
	"draid.go:New", // the offload client (§7), a simulated node
}

// TestNothingAboveTheSeamNamesTheSimEngine walks every non-test Go file of
// the module (benchmark/ is a module of its own and frozen) and fails on a
// use of the engine outside belowTheSeam. It works on syntax alone: the
// engine is the selector Engine or NewEngine on the import of
// draid/internal/sim, and a Cluster.Eng read is any selector .Eng whose
// receiver is not called job — the one other Eng in the tree is the
// interface-typed field of fio.Job, always reached through a variable of
// that name.
func TestNothingAboveTheSeamNamesTheSimEngine(t *testing.T) {
	allowed := func(path, fn string) bool {
		for _, a := range belowTheSeam {
			if a == path || a == path+":"+fn || (strings.HasSuffix(a, "/") && strings.HasPrefix(path, a)) {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		simName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "draid/internal/sim" {
				if simName = "sim"; imp.Name != nil {
					simName = imp.Name.Name
				}
			}
		}
		check := func(fn string, body ast.Node) {
			if allowed(path, fn) {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, _ := sel.X.(*ast.Ident)
				switch {
				case recv != nil && simName != "" && recv.Name == simName && (sel.Sel.Name == "Engine" || sel.Sel.Name == "NewEngine"):
					t.Errorf("%s: %s names %s.%s", fset.Position(sel.Pos()), fn, simName, sel.Sel.Name)
				case sel.Sel.Name == "Eng" && (recv == nil || recv.Name != "job"):
					t.Errorf("%s: %s reads .Eng (Cluster.Eng is the simulation engine; use Cluster.Rt)", fset.Position(sel.Pos()), fn)
				}
				return true
			})
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				check(fd.Name.Name, fd)
			} else {
				check("", decl)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
