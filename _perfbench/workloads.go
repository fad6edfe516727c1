package main

import (
	"context"
	"fmt"
	"sort"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/vm"
)

// A workloadSpec is one named set of simulator inputs. The three machine
// workloads run a default/PTEMagnet scenario pair built with
// sim.BuildMachine and run with vm.Machine.RunWith; sweep runs registry
// experiments back to back through sim.RunExperiment.
type workloadSpec struct {
	name string
	// pair is the scenario run under both policies (nil for sweep).
	pair func(seed int64) sim.Scenario
	// wholeRun selects whole-run cycles for sim_speedup_pct (§6.4 has no
	// steady phase); otherwise the steady window after InitDone is used.
	wholeRun bool
	// paperPct is the paper's value for sim_speedup_pct, "" when the
	// paper reports none for this configuration.
	paperPct string
}

// sweepFirst is the first scenario the sweep simulates (Table 1's
// isolation run). Resolving the experiment list and building this machine
// is all the host work before the sweep's first simulated access, so it
// is the sweep's set-up.
func sweepFirst(sc sim.Scale, seed int64) sim.Scenario {
	return sim.Scenario{Benchmark: "pagerank", Policy: guestos.PolicyDefault, Scale: sc, Seed: seed}
}

// sweepSkipped lists the "all" experiments sweep leaves out: the two
// figure suites have churn's shape and take most of the sweep's time, and
// locking measures real goroutine contention in wall-clock time.
var sweepSkipped = map[string]bool{"objdet-suite": true, "combination-suite": true, "locking": true}

// firstTouchScale grows the guest past DefaultScale so the §6.4 scan
// faults about 157k pages per policy.
func firstTouchScale() sim.Scale {
	sc := sim.DefaultScale()
	sc.GuestMemBytes = 1 << 30
	sc.HostMemBytes = 2 << 30
	return sc
}

// churnScale runs a third of DefaultScale's accesses. Half of them are
// still guest faults and the PTEMagnet gain is the same (4.8% on seed 1),
// but a pass takes a third of the time, so a run times each piece of it
// about three times as often.
func churnScale() sim.Scale {
	sc := sim.DefaultScale()
	sc.Accesses /= 3
	return sc
}

func workloads(sc scales) []workloadSpec {
	return []workloadSpec{
		{
			name: "walk",
			pair: func(seed int64) sim.Scenario {
				return sim.Scenario{Benchmark: "pagerank", Corunners: []string{"stress-ng"},
					StopCorunnersAtInit: true, Scale: sc.machine, Seed: seed}
			},
		},
		{
			name: "churn",
			pair: func(seed int64) sim.Scenario {
				return sim.Scenario{Benchmark: "pagerank", Corunners: []string{"objdet"}, Scale: sc.churn, Seed: seed}
			},
			paperPct: "~5 (Fig. 6 pagerank)",
		},
		{
			name: "first-touch",
			pair: func(seed int64) sim.Scenario {
				return sim.Scenario{Benchmark: "allocmicro", Scale: sc.firstTouch, Seed: seed}
			},
			wholeRun: true,
			paperPct: "0.5 (§6.4)",
		},
		{
			name:     "sweep",
			paperPct: "~5 (Fig. 6 pagerank, granularity group 8)",
		},
	}
}

// scales sizes the workloads; tests shrink them.
type scales struct {
	machine    sim.Scale
	churn      sim.Scale
	firstTouch sim.Scale
	sweep      sim.Scale
}

func defaultScales() scales {
	return scales{machine: sim.DefaultScale(), churn: churnScale(), firstTouch: firstTouchScale(), sweep: sim.QuickScale()}
}

func findWorkload(sc scales, name string) (workloadSpec, bool) {
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scenarioRun is the outcome of one simulated scenario.
type scenarioRun struct {
	key    string // unique within a pass: identity of the scenario
	digest string // counter digest ("" when err != nil)
	err    error
	setupS float64 // host seconds before the first simulated access
	runS   float64 // host seconds of the simulation
	// pieces splits runS into short timed pieces, the same ones on every
	// run of the scenario (see chunksPerScale).
	pieces   []float64
	accesses uint64
	counters obs.Snapshot
	// cycles is the primary's steady (or whole-run) cycle count.
	cycles uint64
}

// digest hashes a scenario's identity and its full counter snapshot: the
// RunRecord content without elapsed_ms.
func digest(fingerprint string, counters obs.Snapshot) string {
	b, err := counters.MarshalJSON()
	if err != nil {
		return "marshal-error"
	}
	return obs.Fingerprint(fingerprint, string(b))
}

// sampleEvery mirrors sim.RunCtx's §6.2 gauge cadence, so a scenario run
// here executes exactly the run sim.RunCtx would.
func sampleEvery(s sim.Scenario) uint64 {
	if s.SampleEvery != 0 {
		return s.SampleEvery
	}
	if n := s.Scale.Accesses / 64; n != 0 {
		return n
	}
	return 1024
}

func runOpts(s sim.Scenario) []vm.RunOpt {
	return []vm.RunOpt{vm.WithStopCorunnersAtInit(s.StopCorunnersAtInit), vm.WithSampleEvery(sampleEvery(s))}
}

var policies = []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet}

// chunksPerScale sets the length of one timed piece of a scenario: the
// run pauses every Scale.Accesses/chunksPerScale machine accesses
// (vm.WithStopAtAccesses, whose resumed run is access-for-access the
// uninterrupted one), so one scenario run yields many timings of at most
// about a tenth of a second at DefaultScale, shorter than the slow spells
// other tenants cause on a shared host.
const chunksPerScale = 16

// runScenario builds and runs one scenario untraced, calling between (when
// not nil) before each timed piece. m is returned for callers that inspect
// the finished machine.
func runScenario(ctx context.Context, s sim.Scenario, wholeRun bool, between func()) (scenarioRun, *vm.Machine) {
	r := scenarioRun{key: s.Identity()}
	stop := startClock()
	m, err := sim.BuildMachine(s)
	r.setupS = stop()
	if err != nil {
		r.err = err
		return r, nil
	}
	chunk := max(s.Scale.Accesses/chunksPerScale, 1)
	for err == nil && m.PendingPrimaries() > 0 {
		if between != nil {
			between()
		}
		stop = startClock()
		err = m.RunWith(ctx, append(runOpts(s), vm.WithStopAtAccesses(m.TotalAccesses()+chunk))...)
		r.pieces = append(r.pieces, stop())
		r.runS += r.pieces[len(r.pieces)-1]
	}
	if err != nil {
		r.err = err
		return r, m
	}
	r.finish(s, m, wholeRun)
	return r, m
}

func (r *scenarioRun) finish(s sim.Scenario, m *vm.Machine, wholeRun bool) {
	r.counters = m.Registry().Snapshot()
	r.digest = digest(s.Fingerprint(), r.counters)
	r.accesses = m.TotalAccesses()
	task := m.Observe().Tasks[0]
	r.cycles = task.SteadyCycles
	if wholeRun {
		r.cycles = task.Cycles
	}
}

// pass is the outcome of running units: every unit once makes a full
// pass over the workload.
type pass struct {
	runs    []scenarioRun
	setupS  float64   // summed set-up (0 for sweep, whose set-ups run inside runS)
	runS    float64   // host seconds of the simulation
	pieces  []float64 // runS split into the same timed pieces on every run
	speedup float64   // sim_speedup_pct, set by the unit that measures it
}

func (p pass) accesses() uint64 {
	var n uint64
	for _, r := range p.runs {
		n += r.accesses
	}
	return n
}

func (p *pass) add(q pass) {
	p.runs = append(p.runs, q.runs...)
	p.setupS += q.setupS
	p.runS += q.runS
	if q.speedup != 0 {
		p.speedup = q.speedup
	}
}

// A unit is the smallest independently timed piece of a workload: one
// scenario of a pair workload, one experiment of sweep.
type unit func(ctx context.Context) pass

// units returns the workload's units; a pair workload's scenarios call
// between (when not nil) before each timed piece.
func units(w workloadSpec, sc scales, seed int64, between func()) []unit {
	if w.pair == nil {
		return sweepUnits(sc.sweep, seed)
	}
	var us []unit
	for _, pol := range policies {
		s := w.pair(seed)
		s.Policy = pol
		us = append(us, func(ctx context.Context) pass {
			r, _ := runScenario(ctx, s, w.wholeRun, between)
			return pass{runs: []scenarioRun{r}, setupS: r.setupS, runS: r.runS, pieces: r.pieces}
		})
	}
	return us
}

// runPass runs every unit of the workload once.
func runPass(ctx context.Context, w workloadSpec, sc scales, seed int64) pass {
	var p pass
	for _, u := range units(w, sc, seed, nil) {
		p.add(u(ctx))
	}
	p.pairSpeedup(w)
	return p
}

// pairSpeedup sets a pair workload's sim_speedup_pct from the pass's
// default and PTEMagnet runs.
func (p *pass) pairSpeedup(w workloadSpec) {
	if w.pair != nil && p.runs[0].err == nil && p.runs[1].err == nil {
		p.speedup = metrics.Speedup(p.runs[0].cycles, p.runs[1].cycles)
	}
}

// sweepExperiments resolves the sweep's experiment list.
func sweepExperiments() ([]string, error) {
	infos, err := sim.MatchExperiments("all")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, info := range infos {
		if !sweepSkipped[info.Name] {
			names = append(names, info.Name)
		}
	}
	return names, nil
}

func sweepUnits(sc sim.Scale, seed int64) []unit {
	names, err := sweepExperiments()
	if err != nil {
		return []unit{func(context.Context) pass {
			return pass{runs: []scenarioRun{{key: "sweep/setup", err: err}}}
		}}
	}
	eng := engine.New(1)
	var us []unit
	for _, name := range names {
		us = append(us, func(ctx context.Context) pass { return runExperiment(ctx, eng, name, sc, seed) })
	}
	return us
}

// runExperiment runs one registry experiment, one scenario at a time, and
// turns its RunRecords into scenario runs.
func runExperiment(ctx context.Context, eng *engine.Engine, name string, sc sim.Scale, seed int64) pass {
	var p pass
	c := &obs.Collector{}
	stop := startClock()
	res, err := sim.RunExperiment(ctx, name, sim.WithScale(sc), sim.WithSeed(seed), sim.WithEngine(eng), sim.WithCollector(c))
	p.runS = stop()
	if err != nil {
		p.runs = append(p.runs, scenarioRun{key: name, err: fmt.Errorf("%s: %w", name, err)})
		return p
	}
	// sweep's sim_speedup_pct is the granularity ablation's point at the
	// paper's 8-page reservation: pagerank beside objdet.
	if g, ok := res.(sim.GranularityResult); ok {
		for _, e := range g.Entries {
			if e.GroupPages == 8 {
				p.speedup = e.SpeedupPct
			}
		}
	}
	// The pieces are the scenarios' own times, then the rest of the
	// experiment's time: orchestration outside any scenario.
	rest := p.runS
	seen := map[string]int{}
	for _, rec := range c.Records() {
		key := name + "/" + rec.Set + "/" + rec.Scenario
		seen[key]++
		if n := seen[key]; n > 1 {
			key = fmt.Sprintf("%s#%d", key, n)
		}
		acc, _ := rec.Counters.Get("machine.accesses")
		s := float64(rec.ElapsedMS) / 1e3
		p.runs = append(p.runs, scenarioRun{
			key: key, digest: digest(rec.Fingerprint, rec.Counters),
			runS: s, accesses: acc, counters: rec.Counters,
		})
		p.pieces = append(p.pieces, s)
		rest -= s
	}
	p.pieces = append(p.pieces, max(rest, 0))
	return p
}

// digests maps scenario keys to counter digests.
type digests map[string]string

func (p pass) digests() digests {
	d := digests{}
	for _, r := range p.runs {
		if r.err == nil {
			d[r.key] = r.digest
		}
	}
	return d
}

// checkPass counts the pass's failed scenarios: those that returned an
// error, whose digest differs from want (when want is non-nil), or that
// want does not list. Expected scenarios missing from the pass count too.
func checkPass(p pass, want digests) (attempted, failed int, problems []string) {
	got := map[string]bool{}
	for _, r := range p.runs {
		attempted++
		got[r.key] = true
		switch {
		case r.err != nil:
			failed++
			problems = append(problems, fmt.Sprintf("%s: %v", r.key, r.err))
		case want == nil:
		case want[r.key] == "":
			failed++
			problems = append(problems, fmt.Sprintf("%s: no expected digest", r.key))
		case want[r.key] != r.digest:
			failed++
			problems = append(problems, fmt.Sprintf("%s: digest %s, expected %s", r.key, r.digest, want[r.key]))
		}
	}
	var missing []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		attempted++
		failed++
		problems = append(problems, fmt.Sprintf("%s: expected scenario did not run", k))
	}
	return attempted, failed, problems
}
