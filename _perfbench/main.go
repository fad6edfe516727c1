// Command perfbench is the repository benchmark: it runs one named
// workload of the simulator for a fixed host-time budget, checks every
// simulated scenario against its expected counter digest, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) with
// their units. The last line of standard output is the JSON result.
//
//	perfbench -workload walk -seed 11 -seconds 30 -trace 0
//	perfbench compare base.jsonl head.jsonl
//	perfbench -write-expected expected.json
//
// run.sh builds it from source and forwards its arguments.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptemagnet/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	// One P: the simulation, the engine's worker, the garbage collector
	// and the reference loop (hostRef) share one thread, so the loop sees
	// the host speed the simulation sees, and the collector's timing on a
	// second CPU cannot move peak_rss_mb from run to run.
	runtime.GOMAXPROCS(1)
	os.Exit(benchMain(os.Args[1:], os.Stdout, defaultScales()))
}

// startClock returns a function reporting the host seconds elapsed since
// the call.
func startClock() func() float64 {
	t := time.Now()
	return func() float64 { return time.Since(t).Seconds() }
}

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         bool
	record        string
	writeExpected string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: walk, churn, first-touch or sweep")
	fs.Int64Var(&o.seed, "seed", 11, "workload seed (11 is the repository's seed)")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.record, "record", "", "append the result with its provenance to this JSONL file")
	fs.StringVar(&o.writeExpected, "write-expected", "", "write the counter digests of every expected seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, value float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		line := fmt.Sprintf("  %-28s %16.6g %-8s", n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func benchMain(args []string, stdout io.Writer, sc scales) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.writeExpected != "" {
		if err := writeExpected(context.Background(), o, sc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(sc, o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	want, err := expectedFor(w.name, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	var res result
	var rep *report
	var problems []string
	if o.trace {
		res, rep, problems = traceWorkload(ctx, w, sc, o.seed, want)
	} else {
		res, rep, problems = measureWorkload(ctx, w, sc, o.seed, o.seconds, want)
	}
	prov := provenance(o.seed)
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v  expected digests: %s\n", w.name, o.seed, o.trace, digestSource(want))
	rep.print(stdout)
	for _, p := range problems {
		fmt.Fprintln(stdout, "  FAILED", p)
	}
	pj, _ := json.Marshal(prov) // strings, numbers and a bool: cannot fail
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	if o.record != "" {
		if err := appendRecord(o.record, w.name, o, prov, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

func digestSource(want digests) string {
	if want == nil {
		return "none for this seed (each scenario checked against its first run)"
	}
	return fmt.Sprintf("%d scenarios from expected.json", len(want))
}

// measureWorkload is the untraced run. It cycles through the workload's
// units (scenarios, or experiments for sweep) until the next one would
// overrun the budget, after at least one full pass, and reports run_s as
// one pass at the nominal host speed: the sum over the units' timed pieces
// of each piece's median run, scaled by the reference loop timed between
// them (see hostRef).
func measureWorkload(ctx context.Context, w workloadSpec, sc scales, seed int64, seconds float64, want digests) (result, *report, []string) {
	elapsed := startClock()
	ref := newHostRef()
	setups := setupSamples(w, sc, seed, ref)
	us := units(w, sc, seed, ref.sample)
	pieces := make([][][]float64, len(us)) // unit → run → piece times
	last := make([]float64, len(us))
	var first, all pass
	var rssMB float64
	for i := 0; ; i++ {
		k := i % len(us)
		settle()
		ref.sample()
		r := us[k](ctx)
		pieces[k] = append(pieces[k], r.pieces)
		last[k] = r.setupS + r.runS
		if i < len(us) {
			first.add(r)
		}
		if i == len(us)-1 {
			// Later passes repeat the same work; the Go heap only creeps
			// up over them, by an amount that varies from run to run.
			rssMB = peakRSSMB()
		}
		all.add(r)
		if next := (i + 1) % len(us); i+1 >= len(us) && elapsed()+last[next] > seconds {
			break
		}
	}
	first.pairSpeedup(w)
	res := result{Metrics: map[string]metric{}}
	var problems []string
	res.Attempted, res.Failed, problems = checkPass(all, want)
	firstDigest := first.digests()
	for _, r := range all.runs {
		if r.err == nil && firstDigest[r.key] != r.digest {
			res.Failed++
			problems = append(problems, fmt.Sprintf("%s: digest differs from its first run", r.key))
		}
	}
	res.Correct = res.Failed == 0
	var medianS float64
	var npieces int
	fewest, most := len(pieces[0]), 0
	for _, runs := range pieces {
		fewest, most = min(fewest, len(runs)), max(most, len(runs))
		for j := range runs[0] {
			var xs []float64
			for _, p := range runs {
				if j < len(p) { // a failed run may stop early
					xs = append(xs, p[j])
				}
			}
			medianS += median(xs)
			npieces++
		}
	}
	scale := ref.scale()
	runS := medianS * scale
	rep := newReport()
	n := fmt.Sprintf("sum over %d timed pieces of %d %s of each piece's median of %d–%d runs, %.4g host s, × %.4g host speed (reference loop median %.4g ms over %d samples, nominal %.4g ms)",
		npieces, len(us), unitName(w), fewest, most, medianS, scale, median(ref.samples)*1e3, len(ref.samples), refNominalS*1e3)
	rep.add("run_s", runS, "s", n)
	rep.add("accesses_per_s", share(float64(first.accesses()), runS), "1/s", fmt.Sprintf("%d simulated accesses per pass over run_s", first.accesses()))
	rep.add("setup_s", median(setups)*scale, "s", fmt.Sprintf("median of %d set-ups, %.4g host s, × the same host speed", len(setups), median(setups)))
	rep.add("peak_rss_mb", rssMB, "MB", "peak resident set over the set-ups and the first pass")
	note := "PTEMagnet over default, simulated cycles; "
	if w.wholeRun {
		note += "whole run"
	} else {
		note += "steady window from the primary's InitDone, caches start empty"
	}
	if w.paperPct != "" {
		note += "; paper " + w.paperPct
	}
	rep.add("sim_speedup_pct", first.speedup, "%", note+"; model otherwise unvalidated (no hardware reference)")
	rep.add("fail_ratio", ratio(uint64(res.Failed), uint64(res.Attempted)), "ratio",
		fmt.Sprintf("%d of %d scenario runs failed; the result line carries it as failed/attempted", res.Failed, res.Attempted))
	for _, name := range endToEndMetrics {
		res.Metrics[name] = rep.metrics[name]
	}
	return res, rep, problems
}

func unitName(w workloadSpec) string {
	if w.pair == nil {
		return "experiments"
	}
	return "scenarios"
}

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json lists;
// the result line carries exactly these.
var endToEndMetrics = []string{"run_s", "accesses_per_s", "setup_s", "peak_rss_mb", "sim_speedup_pct"}

// setupSamples repeats the workload's set-up until at least nine samples
// and 0.2 s have accumulated, so set-up time is a median, not one reading.
// ref is sampled before each set-up.
func setupSamples(w workloadSpec, sc scales, seed int64, ref *hostRef) []float64 {
	var out []float64
	total := startClock()
	for len(out) < 9 || (total() < 0.2 && len(out) < 10000) {
		settle()
		ref.sample()
		if w.pair == nil {
			stop := startClock()
			_, _ = sweepExperiments() // errors surface in the timed runs
			_, _ = sim.BuildMachine(sweepFirst(sc.sweep, seed))
			out = append(out, stop())
			continue
		}
		var s float64
		for _, pol := range policies {
			sc := w.pair(seed)
			sc.Policy = pol
			settle()
			stop := startClock()
			_, _ = sim.BuildMachine(sc)
			s += stop()
		}
		out = append(out, s)
	}
	return out
}

// settle collects the previous step's garbage outside the timed
// sections, so GC work left over from one step is not charged to the next.
func settle() { runtime.GC() }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

//go:embed expected.json
var expectedJSON []byte

// expectedFile maps workload → seed → scenario key → counter digest.
type expectedFile map[string]map[string]digests

// expectedFor returns the recorded digests of a workload and seed, or nil
// when the seed has none.
func expectedFor(workload string, seed int64) (digests, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return f[workload][strconv.FormatInt(seed, 10)], nil
}

// expectedSeeds are the seeds expected.json records: the repository's
// seed 11, its neighbours 0–12, and 29, held out from tuning.
var expectedSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 29}

// writeExpected runs one pass of every workload per expected seed and
// writes the digests, to be committed after a change that is meant to
// move counters.
func writeExpected(ctx context.Context, o options, sc scales) error {
	f := expectedFile{}
	for _, seed := range expectedSeeds {
		for _, w := range workloads(sc) {
			p := runPass(ctx, w, sc, seed)
			if _, failed, probs := checkPass(p, nil); failed > 0 {
				return errors.New(strings.Join(probs, "; "))
			}
			if f[w.name] == nil {
				f[w.name] = map[string]digests{}
			}
			f[w.name][strconv.FormatInt(seed, 10)] = p.digests()
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d scenarios\n", w.name, seed, len(p.runs))
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.writeExpected, append(b, '\n'), 0o644)
}
