package rubin_test

import (
	"go/ast"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	testFuncName = regexp.MustCompile(`\b(Test|Fuzz)[A-Z]\w*`)
	runAfter     = regexp.MustCompile(`^run after (O\d+[a-z]?)(\(\d+\))?:`)
	openItem     = regexp.MustCompile(`(?m)^- \*\*(O\d+[a-z]?) — `)
)

// TestNeverRunList checks never_run.txt — the functions CI's
// production-coverage gate allows at 0.0 % — without coverage data, so a
// typo or a deleted function fails here rather than only in CI. Every
// entry is `id — kind: detail`, in id order, naming a function declared in
// a non-test file outside benchmark/ that has a statement to count. A
// failure path, teardown path or Byzantine guard names at least one test
// or fuzzer, and each one it names exists; a probe is on the dead-surface
// allow-list or names an entry there; `run after On` names an item open in
// ROADMAP.md. An empty body is written `{}`: the CI gate finds it at the
// end of the declaration line and leaves it off the list.
func TestNeverRunList(t *testing.T) {
	raw, err := os.ReadFile("never_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines, ids []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
			id, _, _ := strings.Cut(line, " — ")
			ids = append(ids, id)
		}
	}
	entries := parseAllowList(t, strings.Join(lines, "\n"))
	if len(entries) != len(lines) {
		t.Errorf("%d lines name %d functions: an id is listed twice", len(lines), len(entries))
	}
	if !slices.IsSorted(ids) {
		t.Error("never_run.txt is not in id order")
	}

	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	open := map[string]bool{}
	section, _, _ := strings.Cut(string(roadmap)[strings.Index(string(roadmap), "## Open items"):], "\n## Recent")
	for _, m := range openItem.FindAllStringSubmatch(section, -1) {
		open[m[1]] = true
	}
	probes := parseAllowList(t, deadSurfaceAllowed)

	tree := loadTree(t)
	body := map[string]bool{} // function id -> has a statement
	tests := map[string]bool{}
	for _, u := range tree.units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok || fd.Body == nil:
				case tree.inTest(f.Pos()):
					tests[fd.Name.Name] = true
				case !strings.HasPrefix(u.rel, "benchmark"):
					id := u.pkg.Name() + "." + fd.Name.Name
					if recv := u.info.Defs[fd.Name].Type().(*types.Signature).Recv(); recv != nil {
						named := recv.Type()
						if p, ok := named.(*types.Pointer); ok {
							named = p.Elem()
						}
						id = u.pkg.Name() + "." + named.(*types.Named).Obj().Name() + "." + fd.Name.Name
					}
					body[id] = len(fd.Body.List) > 0
					lb, rb := tree.fset.Position(fd.Body.Lbrace), tree.fset.Position(fd.Body.Rbrace)
					if !body[id] && rb.Offset != lb.Offset+1 {
						t.Errorf("%s (%s): an empty body is written {}, which the CI gate finds at the end of the declaration line", id, lb)
					}
				}
			}
		}
	}

	for id, reason := range entries {
		if has, ok := body[id]; !ok {
			t.Errorf("%s: no non-test function outside benchmark/ has this id", id)
		} else if !has {
			t.Errorf("%s: an empty body has no statement coverage could count; leave it off the list", id)
		}
		switch kind, _, _ := strings.Cut(reason, ":"); {
		case kind == "failure path" || kind == "teardown path" || kind == "Byzantine guard":
			named := testFuncName.FindAllString(reason, -1)
			if len(named) == 0 {
				t.Errorf("%s: a %s names the test or fuzzer that drives it", id, kind)
			}
			for _, name := range named {
				if !tests[name] {
					t.Errorf("%s: %s is not a test or fuzzer of the tree", id, name)
				}
			}
		case kind == "probe":
			named := probes[id] != ""
			for _, word := range strings.Fields(reason) {
				named = named || probes[strings.Trim(word, ".,;()")] != ""
			}
			if !named {
				t.Errorf("%s: a probe is on the dead-surface allow-list, or names the entry there it is reached through", id)
			}
		case runAfter.MatchString(reason):
			if item := runAfter.FindStringSubmatch(reason)[1]; !open[item] {
				t.Errorf("%s: run after %s, which is not an open item of ROADMAP.md", id, item)
			}
		default:
			t.Errorf("%s: reason %q is none of failure path, teardown path, Byzantine guard, probe, run after On", id, reason)
		}
	}
}
