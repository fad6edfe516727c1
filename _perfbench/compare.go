package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two result sets written with -record: for every
// workload in both and every end-to-end metric, it prints each side's
// median and quartiles, the share of pairs the head side won and a
// verdict, following the no-regression and gain rules of the metrics
// guide (ten or more alternating pairs; a gain needs 9/10 pairs won and a
// median shift wider than the base's quartile spread). Runs are paired in
// order; paired runs must share their seed and every run its -seconds.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if _, ok := head[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload appears untraced in both result sets")
	}
	for _, name := range names {
		if err := comparable(base[name], head[name]); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for _, name := range names {
		bf, ba := failures(base[name])
		hf, ha := failures(head[name])
		headFailsMore := float64(hf)*float64(ba) > float64(bf)*float64(ha)
		cells := []string{fmt.Sprintf("failed: base %d/%d head %d/%d", bf, ba, hf, ha)}
		for _, m := range spec.EndToEnd {
			bv, hv := values(base[name], m.Name), values(head[name], m.Name)
			c := compareMetric(bv, hv, m.Better == "higher", m.Bound, headFailsMore)
			cells = append(cells, fmt.Sprintf("%s %s: base %s head %s won %d/%d %s",
				m.Name, m.Unit, quartileText(bv), quartileText(hv), c.won, c.pairs, c.verdict))
		}
		fmt.Fprintf(w, "%-12s %s\n", name, strings.Join(cells, " | "))
	}
	return nil
}

// comparable refuses result sets measured differently: every run must
// use the same -seconds, and the runs paired in order the same seed.
func comparable(base, head []Record) error {
	for _, r := range append(append([]Record(nil), base...), head...) {
		if r.Seconds != base[0].Seconds {
			return fmt.Errorf("runs of %g and %g seconds cannot be compared", base[0].Seconds, r.Seconds)
		}
	}
	for i := 0; i < min(len(base), len(head)); i++ {
		if base[i].Seed != head[i].Seed {
			return fmt.Errorf("pair %d ran seed %d on the base and %d on the head", i+1, base[i].Seed, head[i].Seed)
		}
	}
	return nil
}

// failures sums the scenario runs a result set attempted and failed.
func failures(recs []Record) (failed, attempted int) {
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return failed, attempted
}

func readRecords(path string) (map[string][]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(recs []Record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns Q1, median and Q3 by the exclusive method of Python's
// statistics.quantiles(n=4), so figures match the acceptance check.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func quartileText(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", med, q1, q3, len(xs))
}

type comparison struct {
	won, pairs int
	verdict    string
}

// minPairs is the fewest pairs on which a verdict other than
// "unresolved" is given.
const minPairs = 10

// compareMetric pairs base[i] with head[i] in run order and applies the
// rules: "worse" when the head fails a larger share of its scenarios;
// otherwise "unresolved" with fewer than minPairs pairs; "worse" when the
// head median is worse by more than bound (a share of the base median);
// "improved" when head wins at least 9/10 of the pairs and the medians
// differ by more than the base's quartile spread; "unresolved" when the
// base spread is wider than the bound and head does not read better on
// every run; otherwise "no worse".
func compareMetric(base, head []float64, higherBetter bool, bound float64, headFailsMore bool) comparison {
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	var c comparison
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		if better(head[i], base[i]) {
			c.won++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	worseBy := (hmed - bmed) / math.Abs(bmed)
	if higherBetter {
		worseBy = -worseBy
	}
	switch {
	case headFailsMore:
		c.verdict = "worse"
	case c.pairs < minPairs:
		c.verdict = "unresolved"
	case worseBy > bound:
		c.verdict = "worse"
	case float64(c.won) >= 0.9*float64(c.pairs) && better(hmed, bmed) && math.Abs(hmed-bmed) > bq3-bq1:
		c.verdict = "improved"
	case (bq3-bq1)/math.Abs(bmed) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "no worse"
	}
	return c
}
