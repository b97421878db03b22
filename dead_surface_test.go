package rubin_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllowed is what stays although no non-test file references
// it: one `identifier — reason` per line. An entry without a reason, or
// one that is no longer needed, fails the test.
const deadSurfaceAllowed = `
chaos.Scenario.Byzantine — scenario vocabulary: chaos tests script Byzantine replicas with it; no experiment does yet (exits with ROADMAP O42 or O18)
fabric.Link.Held — probe the fabric and tcpsim tests share: frames parked on a down link
fabric.Link.SetDrop — deterministic per-frame drop predicate, how a test loses exactly the frame it means to (LinkFaults.LossRate draws from the seed)
kvstore.RouteOne — zero value of the Route enum: what PlanOp returns without naming it
kvstore.Store.ApplyPartition — single-bucket install that FuzzApplyPartition (CI fuzz-smoke) and the canonical-encoding tests drive; ApplyTransfer runs the same decodeBucket for all 256
kvstore.Store.Get — probe the kvstore, pbft and shard tests share: a key as a replica's store holds it, read locally, not ordered
kvstore.Store.LockHolder — probe the kvstore and shard tests share: who holds a 2PC write lock
metrics.ReadResultFile — probe the claims table, the knob-table gate and the bench tests share: a checked-in or freshly written BENCH_*.json, loaded and validated (no exit: ROADMAP O17)
metrics.Result.GetSeries — probe those same tests share: one (name, metric) series of a loaded result (no exit: ROADMAP O17)
model.KindNames — what the charge-kind and cost-ledger tests name a kind by; no run prints one
main.knobFlags.Set — flag.Value, called by package flag
msgnet.Peer.Close — how the msgnet tests reach connClosed: queued messages are reported as failed through the send-error surface, never silently discarded (exits with ROADMAP O18's teardown)
msgnet.Peer.OnClose — the teardown callback of that same path, which the tests watch (exits with ROADMAP O18's teardown)
msgnet.Peer.OnWritable — the release edge after ErrBacklog; pbft drops instead of waiting, large state transfers should wait (exits with ROADMAP O15(3))
pbft.Replica.Stable — probe the pbft, chaos and shard tests share: last stable checkpoint
raceflag.Enabled — allocation gates in fifteen packages skip under -race; a build-tagged constant cannot live in a _test.go file they all import
rdma.Device.RegisteredMRs — probe of the rubin tests: a closed channel deregisters its pools
rubin.ServerChannel.Err — the only way to learn that an accepted connection failed its set-up, and which one (no exit: ROADMAP O17)
sim.Loop.SetEventLimit — runaway guard the sim and shard tests set
sim.Resource.Snapshot — probe of the charge-kind and cost-ledger tests: a resource's busy time per kind (a link's through fabric.Link.Wire), which no run prints
tcpsim.Conn.Established — probe of the tcpsim tests: the handshake completed, or a close reached the other end
`

// TestDeadSurface type-checks every package of the tree with its tests
// and fails on any package-level function, method, type, constant or
// variable declared in a non-test file (outside benchmark/ and examples/)
// that no non-test file references — surface only tests call is a second
// copy of something, or nothing at all (ROADMAP O17). References from
// benchmark/ and examples/ count as uses. A method also counts as used
// when it may be called through an interface: some named type whose method
// set holds it — declared on the type or promoted from an embedded one —
// has a method of every name that an interface declared in the tree,
// fmt.Stringer or error asks for. (By name, not by signature: a method set
// that answers every name of an interface is one somebody meant to pass as
// it.) A lone method that merely shares its name with an interface method
// somewhere — a Close nobody calls — is surface like any other.
func TestDeadSurface(t *testing.T) {
	tree := loadTree(t)
	at, inTest := tree.at, tree.inTest

	type decl struct {
		id     string // pkg.Name or pkg.Type.Method
		used   bool   // by a non-test file
		tested bool   // by a _test.go file
	}
	type use struct {
		of   string // position of the declaration referenced
		test bool
	}
	decls := map[string]*decl{} // by declaration position
	var uses []use
	ifaces := [][]string{{"String"}, {"Error"}} // method names of every interface in the tree
	var methodSets []map[string]string          // per named type: method name -> position of its declaration

	for _, u := range tree.units {
		pkg, info := u.pkg, u.info
		counted := !strings.HasPrefix(u.rel, "benchmark") && !strings.HasPrefix(u.rel, "examples")
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); !ok || inTest(expr.Pos()) {
				continue
			}
			it := tv.Type.Underlying().(*types.Interface)
			var names []string
			for i := 0; i < it.NumMethods(); i++ {
				names = append(names, it.Method(i).Name())
			}
			ifaces = append(ifaces, names)
		}
		for ident, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !inTest(ident.Pos()) && !types.IsInterface(tn.Type()) {
				set := map[string]string{}
				for ms, i := types.NewMethodSet(types.NewPointer(tn.Type())), 0; i < ms.Len(); i++ {
					set[ms.At(i).Obj().Name()] = at(ms.At(i).Obj().Pos())
				}
				methodSets = append(methodSets, set)
			}
			if obj == nil || !counted || ident.Name == "_" || inTest(ident.Pos()) {
				continue
			}
			d := &decl{id: pkg.Name() + "." + obj.Name()}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || types.IsInterface(named) {
					continue // a method of an interface type is a requirement, not surface
				}
				d.id = pkg.Name() + "." + named.Obj().Name() + "." + obj.Name()
			} else if obj.Parent() != pkg.Scope() || obj.Name() == "main" || obj.Name() == "init" {
				continue
			}
			decls[at(obj.Pos())] = d
		}
		for ident, obj := range info.Uses {
			if obj.Pos().IsValid() {
				uses = append(uses, use{at(obj.Pos()), inTest(ident.Pos())})
			}
		}
	}
	for _, u := range uses {
		if d := decls[u.of]; d != nil {
			d.used = d.used || !u.test
			d.tested = d.tested || u.test
		}
	}
	for _, names := range ifaces {
	nextSet:
		for _, set := range methodSets {
			for _, name := range names {
				if set[name] == "" {
					continue nextSet
				}
			}
			for _, name := range names {
				if d := decls[set[name]]; d != nil {
					d.used = true
				}
			}
		}
	}

	allowed := map[string]bool{} // entry -> needed
	for id := range parseAllowList(t, deadSurfaceAllowed) {
		allowed[id] = false
	}
	var dead []string
	for pos, d := range decls {
		if d.used {
			continue
		}
		if _, ok := allowed[d.id]; ok {
			allowed[d.id] = true
			continue
		}
		who := "nothing references it"
		if d.tested {
			who = "only _test.go files reference it"
		}
		dead = append(dead, fmt.Sprintf("%s (%s): %s", d.id, pos, who))
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Error(line)
	}
	for id, needed := range allowed {
		if !needed {
			t.Errorf("allow-list entry %s is stale: the identifier is gone or a non-test file references it", id)
		}
	}
}

// TestModelParamsAreCharged fails on any field of model.Params' sub-structs
// (Link, TCP, RDMA, Selector, ...) that no selector expression in a non-test
// file reads: a cost or capacity the simulator never charges is a factor an
// ablation can vary without moving anything. The keys of Default()'s
// composite literal are not reads, nor is the left-hand side of an
// assignment; model's own SerializeTime, Frames and OrderCost are reads.
func TestModelParamsAreCharged(t *testing.T) {
	tree := loadTree(t)
	fields := map[string]string{} // declaration position -> Sub.Field
	for _, u := range tree.units {
		if u.rel != filepath.Join("internal", "model") || u.pkg.Name() != "model" {
			continue
		}
		params := u.pkg.Scope().Lookup("Params").Type().Underlying().(*types.Struct)
		for i := 0; i < params.NumFields(); i++ {
			sub := params.Field(i)
			st := sub.Type().Underlying().(*types.Struct)
			for j := 0; j < st.NumFields(); j++ {
				fields[tree.at(st.Field(j).Pos())] = sub.Name() + "." + st.Field(j).Name()
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no model.Params sub-struct fields: the gate checks nothing")
	}
	read := map[string]bool{} // declaration position
	for _, u := range tree.units {
		for _, f := range u.files {
			if tree.inTest(f.Pos()) {
				continue
			}
			written := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							written[lhs] = true
						}
					}
				case *ast.SelectorExpr:
					if s := u.info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
						read[tree.at(s.Obj().Pos())] = true
					}
				}
				return true
			})
		}
	}
	var unread []string
	for pos, name := range fields {
		if !read[pos] {
			unread = append(unread, fmt.Sprintf("model.Params field %s (%s): no non-test file reads it", name, pos))
		}
	}
	sort.Strings(unread)
	for _, line := range unread {
		t.Error(line)
	}
}
