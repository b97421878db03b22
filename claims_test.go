package rubin_test

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rubin/internal/metrics"
)

// relation is how a claim row compares the points it reads.
type relation int

const (
	less      relation = iota // a < b at every x
	atLeast                   // a/b ≥ bound at every x (a alone when the row has no b)
	atMost                    // a/b ≤ bound at every x (a alone when the row has no b)
	crossover                 // a < b exactly at the x ≤ bound
	value                     // a (a/b when the row has b), printed at its bound's precision, reads that bound; bounds are one per x, or one for all
)

// claim is one row of the claims table: a relation between points of the
// checked-in result of the experiment its id starts with. Series a is read
// at xs in metric; series b at bxs (xs when nil) in bMetric (metric when
// empty). A row with pending set is rendered but asserts nothing until the
// named ROADMAP items land; one with open set is pinned as the file reads,
// an open question rather than a claim: a value row by its bound, a row
// whose relation stopped holding by reads, what the file gives, while its
// bound stays what the claim asks for.
type claim struct {
	id, metric, a, b, bMetric   string
	xs, bxs                     []float64
	rel                         relation
	bound, open, pending, reads string
}

func at(xs ...float64) []float64 { return xs }

// claims is every figure the checked-in results are held to, rendered in
// docs/EXPERIMENTS.md under "Checked-in results" and cited there by id.
var claims = []claim{
	{id: "E1.send-recv-beats-tcp", metric: "latency_mean", a: "RDMA Send/Recv", b: "TCP", xs: at(1, 2, 4, 8, 16, 32, 64, 100), rel: less},
	{id: "E1.channel-beats-tcp", metric: "latency_mean", a: "RDMA Channel", b: "TCP", xs: at(1, 2, 4, 8, 16, 32, 64, 100), rel: less},
	{id: "E1.read-write-beats-send-recv", metric: "latency_mean", a: "RDMA Read/Write", b: "RDMA Send/Recv", xs: at(1, 2, 4, 8, 16, 32, 64, 100), rel: less},
	{id: "E1.read-write-beats-channel", metric: "latency_mean", a: "RDMA Read/Write", b: "RDMA Channel", xs: at(1, 2, 4, 8, 16, 32, 64, 100), rel: less},
	{id: "E1.channel-send-recv-crossover", metric: "latency_mean", a: "RDMA Channel", b: "RDMA Send/Recv", xs: at(1, 2, 4, 8, 16, 32, 64, 100), rel: crossover, bound: "2"},
	{id: "E1.channel-pinned", metric: "latency_mean", a: "RDMA Channel", xs: at(1, 100), rel: value, bound: "47.2, 364"},
	{id: "E1.send-recv-pinned", metric: "latency_mean", a: "RDMA Send/Recv", xs: at(1, 100), rel: value, bound: "55.000, 265"},
	{id: "E3.rubin-beats-nio", metric: "latency_mean", a: "Rubin", b: "TCP", xs: at(1, 10, 20, 40, 60, 80, 100), rel: less},
	{id: "E3.rubin-pinned", metric: "latency_mean", a: "Rubin", xs: at(1, 100), rel: value, bound: "254, 2556"},
	{id: "E3.nio-pinned", metric: "latency_mean", a: "TCP", xs: at(1, 100), rel: value, bound: "287, 4890"},
	{id: "E5.rubin-commits-more", metric: "throughput", a: "Reptor+NIO", b: "Reptor+RUBIN", xs: at(1, 4, 16), rel: less},
	{id: "E5.rubin-lower-latency", metric: "latency_mean", a: "Reptor+RUBIN", b: "Reptor+NIO", xs: at(1, 4, 16), rel: less},
	{id: "E5.rubin-over-nio-16kb", metric: "throughput", a: "Reptor+RUBIN", b: "Reptor+NIO", xs: at(16), rel: value, bound: "3.21"},
	{id: "E6.selective-signaling-pays", metric: "latency_mean", a: "full (all optimizations)", b: "no selective signaling", xs: at(1, 4, 16), rel: less},
	{id: "E6.doorbell-batching-pays", metric: "latency_mean", a: "full (all optimizations)", b: "no doorbell batching", xs: at(1, 4, 16), rel: less},
	{id: "E6.zero-copy-wins-1-16kb", metric: "latency_mean", a: "zero-copy receive (projected)", b: "full (all optimizations)", xs: at(1, 16), rel: less},
	{id: "E6.inline-moves-nothing", metric: "latency_mean", a: "no inline sends", b: "full (all optimizations)", xs: at(1, 4, 16, 64, 100), rel: value, bound: "1.000000", open: "O19"},
	{id: "E6.signaling-flat-large", metric: "latency_mean", a: "no selective signaling", b: "full (all optimizations)", xs: at(64, 100), rel: value, bound: "1.000000", open: "O19"},
	{id: "E6.batching-flat-large", metric: "latency_mean", a: "no doorbell batching", b: "full (all optimizations)", xs: at(64, 100), rel: value, bound: "1.000000", open: "O19"},
	{id: "E6.zero-copy-flat-large", metric: "latency_mean", a: "zero-copy receive (projected)", b: "full (all optimizations)", xs: at(64, 100), rel: value, bound: "1.00000", open: "O19"},
	{id: "E6.zero-copy-4kb", metric: "latency_mean", a: "zero-copy receive (projected)", xs: at(4), rel: value, bound: "103.447", open: "O19"},
	{id: "E6.full-4kb", metric: "latency_mean", a: "full (all optimizations)", xs: at(4), rel: value, bound: "99.932", open: "O19"},
	{id: "E7.rubin-view-change-reproposes", metric: "fault_counters", a: "rdma-rubin counters", xs: at(3), rel: atLeast, bound: "1"},
	{id: "E7.nio-view-change-reproposes", metric: "fault_counters", a: "tcp-nio counters", xs: at(3), rel: atLeast, bound: "1"},
	{id: "E8.cop-rubin-64kb-k4-over-k1", metric: "throughput", a: "COP RUBIN 64KB", b: "COP RUBIN 64KB", xs: at(4), bxs: at(1), rel: atLeast, bound: "1.5"},
	{id: "E8.cop-rubin-1kb-rises-with-k", metric: "throughput", a: "COP RUBIN 1KB", b: "COP RUBIN 1KB", xs: at(1), bxs: at(4), rel: less},
	{id: "E8.pbft-16kb-rubin-over-nio", metric: "throughput", a: "PBFT RUBIN 16KB", b: "PBFT NIO 16KB", xs: at(4, 7, 10), rel: atLeast, pending: "O26"},
	{id: "E10.rubin-s4-over-s1", metric: "committed_goodput", a: "scale cross=0% RUBIN", b: "scale cross=0% RUBIN", xs: at(4), bxs: at(1), rel: atLeast, bound: "2.5",
		open: "O31: the busiest replica thread is 0.96 and 0.91 busy at S = 1 and 4, 0.82 vs 2.62 transport messages per request on the replicas", reads: "689661.5 / 369599.3 = 1.87 at 4"},
	{id: "E10.nio-s4-over-s1", metric: "committed_goodput", a: "scale cross=0% NIO", b: "scale cross=0% NIO", xs: at(4), bxs: at(1), rel: atLeast, bound: "2.0",
		open: "O31: the busiest replica thread is 0.96 and 0.98 busy at S = 1 and 4, 0.80 vs 4.58 transport messages per request on the replicas", reads: "197935.9 / 192197.2 = 1.03 at 4"},
	{id: "E10.rubin-s8-over-s2", metric: "committed_goodput", a: "scale cross=0% RUBIN", b: "scale cross=0% RUBIN", xs: at(8), bxs: at(2), rel: atLeast, bound: "1.5",
		open: "O31: the busiest replica thread is 0.93 and 0.74 busy at S = 2 and 8, 1.52 vs 4.08 transport messages per request on the replicas", reads: "597506.7 / 613082.9 = 0.975 at 8"},
	{id: "E10.nio-s8-over-s2", metric: "committed_goodput", a: "scale cross=0% NIO", b: "scale cross=0% NIO", xs: at(8), bxs: at(2), rel: atLeast, bound: "1.5",
		open: "O31: the busiest replica thread is 0.97 and 0.84 busy at S = 2 and 8, 1.87 vs 10.41 transport messages per request on the replicas", reads: "138561.3 / 232815.9 = 0.595 at 8"},
	{id: "E11.rubin-fast-path-lift", metric: "goodput", a: "mix fp=on RUBIN", b: "mix fp=off RUBIN", xs: at(99), rel: atLeast, bound: "1.5"},
	{id: "E11.nio-fast-path-lift", metric: "goodput", a: "mix fp=on NIO", b: "mix fp=off NIO", xs: at(99), rel: atLeast, bound: "2.0"},
	{id: "E11.rubin-fast-path-wins", metric: "goodput", a: "mix fp=off RUBIN", b: "mix fp=on RUBIN", xs: at(50, 90, 99), rel: less},
	{id: "E11.nio-fast-path-crossover", metric: "goodput", a: "mix fp=on NIO", b: "mix fp=off NIO", xs: at(50, 90, 99), rel: crossover, bound: "50"},
	{id: "E11.rubin-serves-fast-reads", metric: "fast_reads", a: "mix fp=on RUBIN", xs: at(50, 90, 99), rel: atLeast, bound: "1"},
	{id: "E11.nio-serves-fast-reads", metric: "fast_reads", a: "mix fp=on NIO", xs: at(50, 90, 99), rel: atLeast, bound: "1"},
	{id: "E12.rubin-state-grows", metric: "state_bytes", a: "partial rdma-rubin", b: "partial rdma-rubin", xs: at(32000), bxs: at(2000), rel: atLeast, bound: "8"},
	{id: "E12.nio-state-grows", metric: "state_bytes", a: "partial tcp-nio", b: "partial tcp-nio", xs: at(32000), bxs: at(2000), rel: atLeast, bound: "8"},
	{id: "E12.rubin-checkpoint-flat", metric: "checkpoint_bytes", a: "partial rdma-rubin", b: "partial rdma-rubin", xs: at(32000), bxs: at(2000), rel: atMost, bound: "2"},
	{id: "E12.nio-checkpoint-flat", metric: "checkpoint_bytes", a: "partial tcp-nio", b: "partial tcp-nio", xs: at(32000), bxs: at(2000), rel: atMost, bound: "2"},
	{id: "E12.rubin-checkpoint-small", metric: "checkpoint_bytes", a: "partial rdma-rubin", b: "partial rdma-rubin", bMetric: "state_bytes", xs: at(32000), rel: atMost, bound: "0.01"},
	{id: "E12.nio-checkpoint-small", metric: "checkpoint_bytes", a: "partial tcp-nio", b: "partial tcp-nio", bMetric: "state_bytes", xs: at(32000), rel: atMost, bound: "0.01"},
	{id: "E12.rubin-partial-recovers-faster", metric: "recovery_time", a: "partial rdma-rubin", b: "empty-restart rdma-rubin", xs: at(2000, 8000, 32000), rel: less},
	{id: "E12.nio-partial-recovers-faster", metric: "recovery_time", a: "partial tcp-nio", b: "empty-restart tcp-nio", xs: at(2000, 8000, 32000), rel: less},
	{id: "E12.rubin-partial-moves-fewer-bytes", metric: "transfer_bytes", a: "partial rdma-rubin", b: "empty-restart rdma-rubin", xs: at(2000, 8000, 32000), rel: less},
	{id: "E12.nio-partial-moves-fewer-bytes", metric: "transfer_bytes", a: "partial tcp-nio", b: "empty-restart tcp-nio", xs: at(2000, 8000, 32000), rel: less},
}

func (c claim) exp() string { e, _, _ := strings.Cut(c.id, "."); return e }

// bSide returns the metric and the points series b is read at.
func (c claim) bSide() (string, []float64) {
	if c.bxs == nil {
		return cmp.Or(c.bMetric, c.metric), c.xs
	}
	return cmp.Or(c.bMetric, c.metric), c.bxs
}

// num prints a value the way the table does: seven significant digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 7, 64) }

func list(xs []float64) string {
	return strings.Trim(strings.Join(strings.Fields(fmt.Sprint(xs)), ", "), "[]")
}

// text is the claim column: what the row reads.
func (c claim) text() string {
	op := cmp.Or(map[relation]string{less: " < ", crossover: " < "}[c.rel], " / ")
	bMetric, bxs := c.bSide()
	switch {
	case c.b == "":
		return fmt.Sprintf("`%s`, %s, at %s", c.a, c.metric, list(c.xs))
	case c.bMetric == "" && c.bxs == nil:
		return fmt.Sprintf("`%s`%s`%s`, %s, at %s", c.a, op, c.b, c.metric, list(c.xs))
	}
	return fmt.Sprintf("`%s` %s at %s%s`%s` %s at %s", c.a, c.metric, list(c.xs), op, c.b, bMetric, list(bxs))
}

// relation is the bound column: what the row must read to hold.
func (c claim) relation() string {
	if c.pending != "" {
		return "pending " + c.pending
	}
	s := map[relation]string{less: "at every x", atLeast: "≥ ", atMost: "≤ ", crossover: "exactly at x ≤ ", value: "= "}[c.rel] + c.bound
	if c.open != "" {
		s += ", open (" + c.open + ")"
	}
	return s
}

// pair is one comparison a row makes; b is 1 for a row without b.
type pair struct{ x, a, b float64 }

// eval returns what the file gives for the row and whether the row holds.
func (c claim) eval(res map[string]*metrics.Result) (string, bool) {
	point := func(series, metric string, x float64) float64 {
		if s := res[c.exp()].GetSeries(series, metric); s != nil {
			return s.At(x)
		}
		return math.NaN()
	}
	bMetric, bxs := c.bSide()
	ps := make([]pair, len(c.xs))
	for i, x := range c.xs {
		ps[i] = pair{x, point(c.a, c.metric, x), 1}
		if c.b != "" {
			ps[i].b = point(c.b, bMetric, bxs[i])
		}
		if !(ps[i].a > 0 && ps[i].b > 0) {
			return fmt.Sprintf("no positive point at %v", x), false
		}
	}
	byRatio := func(p, q pair) int { return cmp.Compare(p.a/p.b, q.a/q.b) }
	lo, hi := slices.MinFunc(ps, byRatio), slices.MaxFunc(ps, byRatio)
	ratio := func(p pair) string {
		if c.b == "" {
			return num(p.a) + " at " + num(p.x)
		}
		return fmt.Sprintf("%s / %s = %.3g at %s", num(p.a), num(p.b), p.a/p.b, num(p.x))
	}
	bound, _ := strconv.ParseFloat(c.bound, 64)
	bounds := strings.Split(c.bound, ", ")
	var got []string
	ok := true
	for i, p := range ps {
		switch c.rel {
		case crossover:
			if p.a < p.b {
				got = append(got, num(p.x))
			}
			ok = ok && (p.a < p.b) == (p.x <= bound)
		case value:
			want := bounds[min(i, len(bounds)-1)]
			_, frac, _ := strings.Cut(want, ".")
			ok = ok && strconv.FormatFloat(p.a/p.b, 'f', len(frac), 64) == want
			got = append(got, num(p.a/p.b))
		}
	}
	switch c.rel {
	case less:
		return fmt.Sprintf("%s vs %s at %s", num(hi.a), num(hi.b), num(hi.x)), hi.a < hi.b
	case atLeast:
		return ratio(lo), lo.a/lo.b >= bound
	case atMost:
		return ratio(hi), hi.a/hi.b <= bound
	case crossover:
		return "below at " + cmp.Or(strings.Join(got, ", "), "no x"), ok
	}
	return strings.Join(got, ", "), ok
}

// check returns the row's failure, or "" when it holds or is pending. A
// row with reads holds while the file gives exactly that.
func (c claim) check(res map[string]*metrics.Result) string {
	got, ok := c.eval(res)
	if c.reads != "" {
		ok = got == c.reads
	}
	if !ok && c.pending == "" {
		return fmt.Sprintf("%s: %s gives %s, bound %s", c.id, metrics.ResultFilename(c.exp()), got, c.relation())
	}
	return ""
}

// checkedInResults loads every result file a row reads, afresh.
func checkedInResults(t *testing.T) map[string]*metrics.Result {
	t.Helper()
	res := map[string]*metrics.Result{}
	for _, c := range claims {
		if res[c.exp()] == nil {
			r, err := metrics.ReadResultFile(metrics.ResultFilename(c.exp()))
			if err != nil {
				t.Fatal(err)
			}
			if r.Experiment != c.exp() {
				t.Fatalf("%s holds experiment %s", metrics.ResultFilename(c.exp()), r.Experiment)
			}
			res[c.exp()] = r
		}
	}
	return res
}

// renderClaims is the markdown table docs/EXPERIMENTS.md holds.
func renderClaims(res map[string]*metrics.Result) string {
	var b strings.Builder
	b.WriteString("| id | claim | the file gives | bound |\n|---|---|---|---|\n")
	for _, c := range claims {
		got, _ := c.eval(res)
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", c.id, c.text(), got, c.relation())
	}
	return b.String()
}

// checkClaims holds the checked-in results to the calling test's rows, without a simulation.
func checkClaims(t *testing.T) {
	holder := map[string]string{"E10": "TestShardScalingCheckedIn", "E11": "TestReadFastPathCheckedIn", "E12": "TestStateSizeCheckedIn"}
	res := checkedInResults(t)
	for _, c := range claims {
		if msg := c.check(res); msg != "" && cmp.Or(holder[c.exp()], "TestPaperFiguresCheckedIn") == t.Name() {
			t.Error(msg)
		}
	}
}

func TestPaperFiguresCheckedIn(t *testing.T) { checkClaims(t) }
func TestShardScalingCheckedIn(t *testing.T) { checkClaims(t) }
func TestReadFastPathCheckedIn(t *testing.T) { checkClaims(t) }
func TestStateSizeCheckedIn(t *testing.T)    { checkClaims(t) }

const claimsBegin, claimsEnd = "<!-- claims table: rendered from claims_test.go -->\n", "<!-- end of claims table -->"

// claimRefRE captures a cited claim id.
var claimRefRE = regexp.MustCompile("`(E[0-9]+\\.[a-z0-9-]+)`")

// TestDocsClaimsTable asserts docs/EXPERIMENTS.md holds the rendering of
// the claims table between its markers, and that README.md and docs/ cite
// no claim id the table does not have.
func TestDocsClaimsTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(data), claimsBegin)
	block, _, ok := strings.Cut(block, claimsEnd)
	if want := renderClaims(checkedInResults(t)); !ok || block != want {
		t.Errorf("docs/EXPERIMENTS.md does not hold the claims table; paste this block under \"Checked-in results\":\n%s%s%s", claimsBegin, want, claimsEnd)
	}
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range claimRefRE.FindAllStringSubmatch(string(data), -1) {
			if !slices.ContainsFunc(claims, func(c claim) bool { return c.id == m[1] }) {
				t.Errorf("%s cites claim %s, which no row has", file, m[1])
			}
		}
	}
}

// TestClaimsFailWhereTheFileMoves moves one point of a freshly loaded
// result in memory and runs the rows against it: exactly the rows reading
// that point fail, each naming its id, the moved value and its bound.
func TestClaimsFailWhereTheFileMoves(t *testing.T) {
	for _, n := range []struct {
		exp, series, metric string
		x, factor           float64
	}{
		{"E1", "TCP", "latency_mean", 100, 0.1},
		{"E12", "partial rdma-rubin", "checkpoint_bytes", 32000, 10},
		// An open row fails too, even when the move would satisfy its bound.
		{"E10", "scale cross=0% RUBIN", "committed_goodput", 4, 2},
	} {
		res := checkedInResults(t)
		s := res[n.exp].GetSeries(n.series, n.metric)
		i := slices.IndexFunc(s.Points, func(p metrics.Point) bool { return p.X == n.x })
		s.Points[i].Y *= n.factor
		var readers, failed []string
		for _, c := range claims {
			bMetric, bxs := c.bSide()
			if c.pending == "" && c.exp() == n.exp && (c.a == n.series && c.metric == n.metric && slices.Contains(c.xs, n.x) ||
				c.b == n.series && bMetric == n.metric && slices.Contains(bxs, n.x)) {
				readers = append(readers, c.id)
			}
			if msg := c.check(res); msg != "" {
				failed = append(failed, c.id)
				if !strings.HasPrefix(msg, c.id+": ") || !strings.Contains(msg, num(s.Points[i].Y)) || !strings.HasSuffix(msg, c.relation()) {
					t.Errorf("failure %q does not print the row id, the moved value %s and the bound", msg, num(s.Points[i].Y))
				}
			}
		}
		if len(readers) == 0 || !slices.Equal(failed, readers) {
			t.Errorf("%s (%s, %s) at %v moved: rows %v failed, rows %v read it", n.exp, n.series, n.metric, n.x, failed, readers)
		}
	}
}
