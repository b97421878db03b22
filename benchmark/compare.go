package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// side is one -out file: per workload, the untraced results in file order.
type side map[string][]result

func readSide(path string) (side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			s[rec.Workload] = append(s[rec.Workload], rec.Result)
		}
	}
	return s, sc.Err()
}

// quartileDistance returns the distance between the first and third
// quartile of vals, computed as Python's statistics.quantiles(vals, n=4)
// does (the driver's method); 0 when there are fewer than two values.
func quartileDistance(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}

func failedShare(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the change, the bound from the manifest and a verdict. The
// change is signed so that positive is worse. A pair whose own run-to-run
// spread (quartile distance over median, the wider side) exceeds the
// bound is unresolved, not unchanged. It reports whether anything
// regressed, the failed share rose, or a workload is in one file only.
func compareFiles(m manifest, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	a, err := readSide(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSide(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tspread\tbound\tverdict")
	for _, wl := range m.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue // neither side ran it
		}
		if len(ra) == 0 || len(rb) == 0 {
			// A side that died before it could append its record must not
			// read as "no regression".
			regressed = true
			fmt.Fprintf(tw, "%s\t(every metric)\t%d runs\t%d runs\t\t\t\tregressed: one side is missing\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, d := range m.withHostClock() {
			pick := func(rs []result) []float64 {
				vals := make([]float64, len(rs))
				for i, r := range rs {
					vals[i] = r.Metrics[d.Name].Value
				}
				return vals
			}
			va, vb := pick(ra), pick(rb)
			ma, mb := median(va), median(vb)
			ia, ib := quartileDistance(va), quartileDistance(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(ia/ma, ib/mb)
			verdict := "unchanged"
			switch {
			case spread > *d.Bound:
				verdict = "unresolved"
			case worse > *d.Bound:
				verdict, regressed = "regressed", true
			case worse < -*d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*spread, 100**d.Bound, verdict)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			regressed = true
			fmt.Fprintf(tw, "%s\tfailed share\t%.6g\t%.6g\t\t\t0%%\tregressed\n", wl.Name, fa, fb)
		}
	}
	return regressed, tw.Flush()
}
