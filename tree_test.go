package rubin_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sourceTree is every package of the repository type-checked with its
// tests: what the source-reading gates (TestDeadSurface,
// TestModelParamsAreCharged, TestMapRangeGate, TestNeverRunList) walk. The type-check is most of what those gates cost, so it is done
// once per test binary, whichever of them runs first.
type sourceTree struct {
	fset  *token.FileSet
	root  string // absolute: the importer names files that way
	units []*treeUnit
}

// treeUnit is one type-checking unit: a package's own files with its
// in-package tests, or its external test package.
type treeUnit struct {
	rel   string // directory, relative to the root
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// at names a position relative to the root — a declaration is recognised
// across type-checking units by it.
func (tr *sourceTree) at(pos token.Pos) string {
	return strings.TrimPrefix(tr.fset.Position(pos).String(), tr.root+"/")
}

// inTest goes by Position, not File: the implicit interface go/types wraps
// an inline constraint ([S string | []byte]) in has no position and so no
// file.
func (tr *sourceTree) inTest(pos token.Pos) bool {
	return strings.HasSuffix(tr.fset.Position(pos).Filename, "_test.go")
}

var parseTree = sync.OnceValues(func() (*sourceTree, error) {
	tr := &sourceTree{fset: token.NewFileSet()}
	// One importer for the whole walk: it caches every package it
	// type-checks from source, the standard library included.
	imp := importer.ForCompiler(tr.fset, "source", nil).(types.ImporterFrom)
	var err error
	if tr.root, err = filepath.Abs("."); err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(tr.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != tr.root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "baseline" || name == "traces") {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		byName := map[string][]*ast.File{}
		var names []string // in file order, so units are walked in a fixed order
		matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range matches {
			if ok, err := build.Default.MatchFile(dir, filepath.Base(path)); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(tr.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if byName[f.Name.Name] == nil {
				names = append(names, f.Name.Name)
			}
			byName[f.Name.Name] = append(byName[f.Name.Name], f)
		}
		rel, _ := filepath.Rel(tr.root, dir)
		for _, name := range names {
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			var errs []error
			conf := types.Config{Importer: importerFrom{imp, dir}, Error: func(err error) { errs = append(errs, err) }}
			pkg, _ := conf.Check(name, tr.fset, byName[name], info)
			// An external test package sees its package through the importer,
			// without what export_test.go adds; go vet checks those, here they
			// only say which tests still reference a dead identifier.
			if len(errs) > 0 && !strings.HasSuffix(name, "_test") {
				return nil, fmt.Errorf("type-checking %s (%s): %v", dir, name, errs[0])
			}
			tr.units = append(tr.units, &treeUnit{rel: rel, pkg: pkg, files: byName[name], info: info})
		}
	}
	return tr, nil
})

func loadTree(t *testing.T) *sourceTree {
	t.Helper()
	tr, err := parseTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// importerFrom resolves imports relative to the importing package's
// directory, so benchmark/ (its own module) finds the tree through its
// replace directive.
type importerFrom struct {
	imp types.ImporterFrom
	dir string
}

func (i importerFrom) Import(path string) (*types.Package, error) {
	return i.imp.ImportFrom(path, i.dir, 0)
}

// parseAllowList reads a gate's allow-list, one `entry — reason` per line,
// and returns reason by entry. A line without a reason fails the test:
// the reasons are the review.
func parseAllowList(t *testing.T, list string) map[string]string {
	t.Helper()
	entries := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		if line == "" {
			continue
		}
		entry, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list line %q: want `entry — reason`", line)
		}
		entries[strings.TrimSpace(entry)] = strings.TrimSpace(reason)
	}
	return entries
}
