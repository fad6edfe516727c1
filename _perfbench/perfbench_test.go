package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
)

// tinyScales shrinks every workload so the whole benchmark runs in
// seconds.
func tinyScales() scales {
	tiny := sim.Scale{
		HostMemBytes:      128 << 20,
		GuestMemBytes:     64 << 20,
		DatasetBytes:      1 << 20,
		Accesses:          4000,
		CorunnerFootprint: 512 << 10,
		LLCBytes:          32 << 10,
		L2Bytes:           16 << 10,
	}
	return scales{machine: tiny, churn: tiny, firstTouch: tiny, sweep: tiny}
}

// unseenSeed has no digests in expected.json (they are recorded at full
// scale), so tiny runs check each scenario against its first run.
const unseenSeed = 424242

// specPath is BENCHMARK.json, found before any test changes directory.
var specPath = func() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "..", "BENCHMARK.json")
}()

func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (workloads []string, endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

func runBench(t *testing.T, args ...string) (result, string, int) {
	t.Helper()
	var out bytes.Buffer
	code := benchMain(args, &out, tinyScales())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, out.String(), code
}

// TestSmoke runs every workload of BENCHMARK.json at tiny scale, untraced
// and traced, and checks each named metric is printed with its unit and a
// value that is finite and not 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	chdir(t, t.TempDir()) // spans go to .bench_build under the working directory
	names, endToEnd, perLayer := loadSpec(t)
	if len(names) != len(workloads(tinyScales())) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(names), len(workloads(tinyScales())))
	}
	for _, w := range names {
		for trace, want := range map[string][]specMetric{"0": endToEnd, "1": perLayer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				res, out, code := runBench(t, "-workload", w, "-seed", "424242", "-seconds", "0.01", "-trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || got.Value == 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, "  "+m.Name+" ") {
						t.Errorf("metric %s missing from the printed report", m.Name)
					}
				}
			})
		}
	}
}

// TestDigestMismatchFails alters one expected digest and checks that the
// scenario counts as failed, both in checkPass and in a whole run.
func TestDigestMismatchFails(t *testing.T) {
	sc := tinyScales()
	w, _ := findWorkload(sc, "walk")
	p := runPass(context.Background(), w, sc, unseenSeed)
	want := p.digests()
	if _, failed, probs := checkPass(p, want); failed != 0 {
		t.Fatalf("unaltered digests fail: %v", probs)
	}
	key := p.runs[0].key
	want[key] = "0000000000000000"
	attempted, failed, probs := checkPass(p, want)
	if attempted != 2 || failed != 1 || !strings.Contains(strings.Join(probs, "\n"), key) {
		t.Fatalf("altered digest: attempted %d failed %d problems %v", attempted, failed, probs)
	}
	res, _, _ := measureWorkload(context.Background(), w, sc, unseenSeed, 0.01, want)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with an altered digest reported %+v", res)
	}
	delete(want, key)
	want["walk/missing"] = "0000000000000000"
	if _, failed, _ := checkPass(p, want); failed != 2 {
		t.Fatalf("unknown and missing scenarios: %d failed, want 2", failed)
	}
}

// TestScenarioMatchesRunCtx pins that the driver's BuildMachine+RunWith,
// paused and resumed at every timed piece, executes exactly the run
// sim.RunCtx does: same RunRecord counters.
func TestScenarioMatchesRunCtx(t *testing.T) {
	w, _ := findWorkload(tinyScales(), "churn")
	s := w.pair(unseenSeed)
	s.Policy = guestos.PolicyPTEMagnet
	c := &obs.Collector{}
	if _, err := sim.RunCtx(obs.WithCollector(context.Background(), c), s); err != nil {
		t.Fatal(err)
	}
	rec := c.Records()[0]
	r, _ := runScenario(context.Background(), s, false, nil)
	if len(r.pieces) < chunksPerScale {
		t.Fatalf("run timed in %d pieces, want at least %d", len(r.pieces), chunksPerScale)
	}
	if r.err != nil || r.digest != digest(rec.Fingerprint, rec.Counters) {
		t.Fatalf("driver run %q (err %v) differs from sim.RunCtx %q", r.digest, r.err, digest(rec.Fingerprint, rec.Counters))
	}
}

func TestExpectedDigestsCoverEveryWorkload(t *testing.T) {
	names, _, _ := loadSpec(t)
	for _, w := range names {
		for _, seed := range expectedSeeds {
			d, err := expectedFor(w, seed)
			if err != nil || len(d) == 0 {
				t.Errorf("%s seed %d: no expected digests (err %v)", w, seed, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster", base, shift(0.9), "improved"},
		{"same", base, base, "no worse"},
		{"slower", base, shift(1.2), "worse"},
		{"noisy", noisy, noisy, "unresolved"},
		{"one pair", base[:1], shift(0.5)[:1], "unresolved"},
		{"nine pairs", base[:9], shift(0.9)[:9], "unresolved"},
	} {
		if got := compareMetric(c.base, c.head, false, 0.1, false).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := compareMetric(base, shift(0.9), false, 0.1, true).verdict; got != "worse" {
		t.Errorf("faster head that fails more: verdict %q, want worse", got)
	}
}

func TestCompareRefusesMismatchedSets(t *testing.T) {
	rec := func(seed int64, seconds float64) Record { return Record{Seed: seed, Seconds: seconds} }
	if err := comparable([]Record{rec(1, 25), rec(2, 25)}, []Record{rec(1, 25), rec(2, 25)}); err != nil {
		t.Fatalf("matching sets refused: %v", err)
	}
	if err := comparable([]Record{rec(1, 25)}, []Record{rec(1, 20)}); err == nil {
		t.Error("sets of different -seconds compared")
	}
	if err := comparable([]Record{rec(1, 25), rec(2, 25)}, []Record{rec(2, 25), rec(1, 25)}); err == nil {
		t.Error("pairs of different seeds compared")
	}
}

// TestSameCountersReportsDifference pins the re-execution check: a
// counter under a compared prefix that differs fails, others are ignored.
func TestSameCountersReportsDifference(t *testing.T) {
	snap := func(walks, faults uint64) obs.Snapshot {
		r := obs.NewRegistry()
		r.Counter("walker.walks", func() uint64 { return walks })
		r.Counter("guest.faults", func() uint64 { return faults })
		return r.Snapshot()
	}
	if err := sameCounters(snap(5, 1), snap(5, 2), "walker."); err != nil {
		t.Fatalf("counters outside the prefixes compared: %v", err)
	}
	if err := sameCounters(snap(5, 1), snap(6, 1), "walker."); err == nil || !strings.Contains(err.Error(), "walker.walks") {
		t.Fatalf("differing walker.walks not reported: %v", err)
	}
}

// TestHostRefRingIsOneCycle checks that the reference chase visits every
// slot of its ring, so each timed loop walks the whole L2-sized ring.
func TestHostRefRingIsOneCycle(t *testing.T) {
	h := newHostRef()
	seen := make([]bool, refRingLen)
	j := int32(0)
	for range refRingLen {
		if seen[j] {
			t.Fatalf("slot %d visited twice", j)
		}
		seen[j] = true
		j = h.ring[j]
	}
	if j != 0 {
		t.Fatalf("chase ends at %d after %d steps, want back at 0", j, refRingLen)
	}
	h.sample()
	if s := h.scale(); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("scale %v from sample %v", s, h.samples)
	}
}
