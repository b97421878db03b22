package rubin_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rubin/internal/bench"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// markdownLinkRE captures the target of inline markdown links.
var markdownLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	matches, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, matches...)
}

// TestDocsLinks asserts every relative link in README.md and docs/*.md
// resolves to an existing file in the repository — the docs link-check CI
// runs. External links (with a scheme) and pure anchors are skipped;
// fragment suffixes on relative links are ignored.
func TestDocsLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range markdownLinkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
		}
	}
}

// TestDocsMentionEveryExperiment asserts docs/EXPERIMENTS.md documents
// each registered experiment with its own section heading, so the
// registry and its documentation cannot drift apart silently.
func TestDocsMentionEveryExperiment(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	experiments := bench.Experiments()
	if len(experiments) < 8 {
		t.Fatalf("registry has %d experiments, want at least 8", len(experiments))
	}
	for _, e := range experiments {
		if !strings.Contains(text, "## "+e.Name+" ") {
			t.Errorf("docs/EXPERIMENTS.md: missing section for experiment %s", e.Name)
		}
	}
}

// statsTableRowRE captures the name and kind columns of one row of the
// Stats table in docs/ARCHITECTURE.md.
var statsTableRowRE = regexp.MustCompile("(?m)^\\| `([a-z_.]+)` \\| (counter|peak|level) \\|")

// TestDocsStatsTable asserts the Stats table in docs/ARCHITECTURE.md and
// the code register the same names with the same kinds: one deployment of
// each shape is built — a plain cluster with the read fast path on, a COP
// group of two instances, two shards — every node of its network is
// enumerated, and a name that is registered but not documented, documented
// but registered by no shape, or documented under another kind fails, as
// does a node whose CPU, application thread or NIC is not in its table.
func TestDocsStatsTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### Stats\n")
	if !ok {
		t.Fatal("docs/ARCHITECTURE.md: no Stats section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]string{}
	for _, m := range statsTableRowRE.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("docs/ARCHITECTURE.md: the Stats section has no table rows")
	}

	const seed = 1
	var worlds []*fabric.Network
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	kv := func(int) pbft.Application { return kvstore.New() }

	c, err := pbft.NewCluster(transport.KindRDMA, pbft.DefaultConfig(), model.Default(), seed, kv)
	must(err)
	must(c.Start())
	cl, err := c.AddClient()
	must(err)
	cl.EnableReadFastPath(c.Loop, sim.Millisecond)
	worlds = append(worlds, c.Network)

	scfg := shard.Config{Shards: 2, PBFT: pbft.DefaultConfig()}
	for _, build := range []struct {
		kind transport.Kind
		new  func(transport.Kind, shard.Config, model.Params, int64) (*shard.Deployment, error)
	}{{transport.KindTCP, shard.NewCOP}, {transport.KindRDMA, shard.New}} {
		d, err := build.new(build.kind, scfg, model.Default(), seed)
		must(err)
		must(d.Start())
		_, err = d.AddRouter()
		must(err)
		worlds = append(worlds, d.Network)
	}

	kindNames := map[fabric.StatKind]string{fabric.StatCounter: "counter", fabric.StatPeak: "peak", fabric.StatLevel: "level"}
	registered := map[string]bool{}
	for _, nw := range worlds {
		for _, node := range nw.Nodes() {
			node.EachStat(func(name string, kind fabric.StatKind, _ float64) {
				registered[name] = true
				switch want, ok := documented[name]; {
				case !ok:
					t.Errorf("%s registers %q, which the Stats table does not list", node.Name(), name)
				case want != kindNames[kind]:
					t.Errorf("%s registers %q as a %s, the Stats table says %s", node.Name(), name, kindNames[kind], want)
				}
			})
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("the Stats table lists %q, which no deployment shape registers", name)
		}
	}
}
