// The experiment registry: one table describing every runnable experiment
// (name, display title, selector tags, paper notes) with a uniform
// context-first entry point. cmd/experiments dispatches through it instead
// of hard-coding one call site per experiment, and new experiments are
// added by appending one entry here. The typed RunXxxCtx functions remain
// the primary API for programmatic callers; the registry adapts them to a
// common signature for name-driven dispatch.
package sim

import (
	"context"
	"fmt"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/obs"
)

// ExperimentResult is the reduced output of one experiment — every typed
// result satisfies it via its String rendering.
type ExperimentResult interface{ String() string }

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	// Name is the canonical registry key (RunExperiment's argument).
	Name string
	// Title is the display heading, naming the paper table or figure.
	Title string
	// Notes are the paper's headline numbers, printed after a successful
	// run (already indented for the experiment listing format).
	Notes []string
	// Tags are additional selector aliases: a -exp value matches an
	// experiment when it equals its Name or one of its Tags. Aliases may
	// span experiments (e.g. "fig6" selects the objdet suite and the
	// low-pressure check, which print together as Figure 6).
	Tags []string
	// InAll marks experiments included in the "all" selector. The opt-in
	// sweeps (multitenant, migration, chaos, overcommit) are excluded so
	// the default output stays stable.
	InAll bool
}

// DefaultSeed is the seed RunExperiment uses when WithSeed is absent —
// the same default cmd/experiments ships, so programmatic and CLI runs
// of an experiment agree by default.
const DefaultSeed int64 = 11

// runParams is the assembled form of RunExperiment's options.
type runParams struct {
	scale     Scale
	seed      int64
	eng       *engine.Engine
	vmCounts  []int
	faults    faults.Config
	retry     engine.RetryPolicy
	collector *obs.Collector
}

func defaultRunParams() runParams {
	return runParams{scale: DefaultScale(), seed: DefaultSeed}
}

// RunOpt configures RunExperiment — the same functional-options idiom as
// machine runs (vm.RunOpt), so experiment and machine configuration read
// alike.
type RunOpt func(*runParams)

// WithScale selects the sweep sizing (default DefaultScale()).
func WithScale(sc Scale) RunOpt {
	return func(p *runParams) { p.scale = sc }
}

// WithSeed sets the base simulation seed (default DefaultSeed).
func WithSeed(seed int64) RunOpt {
	return func(p *runParams) { p.seed = seed }
}

// WithEngine runs the experiment's scenarios through e (nil = default
// settings: a fresh engine with GOMAXPROCS workers).
func WithEngine(e *engine.Engine) RunOpt {
	return func(p *runParams) { p.eng = e }
}

// WithVMCounts narrows the multitenant sweep to the given VM counts
// (none = the full sweep); ignored by every other experiment.
func WithVMCounts(counts ...int) RunOpt {
	return func(p *runParams) { p.vmCounts = append(p.vmCounts, counts...) }
}

// WithFaultPlan sets the fault campaign for fault-aware experiments: the
// chaos sweep replaces its built-in escalation ladder with cfg (its
// migration scenarios keep their own schedules). Ignored by experiments
// that do not inject faults. A zero cfg is ignored.
func WithFaultPlan(cfg faults.Config) RunOpt {
	return func(p *runParams) { p.faults = cfg }
}

// WithRetry sets the per-scenario retry policy for fault-aware
// experiments (default for chaos: 3 attempts, faults.IsTransient).
// Ignored by experiments that do not retry.
func WithRetry(policy engine.RetryPolicy) RunOpt {
	return func(p *runParams) { p.retry = policy }
}

// WithCollector attaches c to the run context (obs.WithCollector), so
// every executed scenario emits a RunRecord into it.
func WithCollector(c *obs.Collector) RunOpt {
	return func(p *runParams) { p.collector = c }
}

// experiment binds an ExperimentInfo to its adapted entry point.
type experiment struct {
	info ExperimentInfo
	run  func(ctx context.Context, p runParams) (ExperimentResult, error)
}

// engineRun adapts the common RunXxxCtx shape to the registry signature.
func engineRun[T ExperimentResult](f func(context.Context, *engine.Engine, Scale, int64) (T, error)) func(context.Context, runParams) (ExperimentResult, error) {
	return func(ctx context.Context, p runParams) (ExperimentResult, error) {
		r, err := f(ctx, p.eng, p.scale, p.seed)
		return r, err
	}
}

// experiments lists every experiment in "all" execution order (the paper's
// table/figure order, then the ablations, then the opt-in sweeps). Order
// is part of the CLI's output contract — append, never reorder.
var experiments = []experiment{
	{
		info: ExperimentInfo{Name: "table1", Title: "Table 1 (§3.3)", InAll: true},
		run:  engineRun(RunTable1Ctx),
	},
	{
		info: ExperimentInfo{
			Name:  "objdet-suite",
			Title: "Figures 5 and 6 (§6.1, objdet co-runner)",
			Notes: []string{
				"  paper: fragmentation drops to ~1 for every benchmark (Fig 5);",
				"  improvement 4% geomean, 9% max on xz, never negative (Fig 6)",
			},
			Tags:  []string{"fig5", "fig6"},
			InAll: true,
		},
		run: engineRun(RunObjdetSuiteCtx),
	},
	{
		info: ExperimentInfo{
			Name:  "combination-suite",
			Title: "Figure 7 (§6.1, combination of co-runners)",
			Notes: []string{
				"  paper: 3% geomean, 5% max on mcf — about 1% below the objdet-only scenario",
			},
			Tags:  []string{"fig7"},
			InAll: true,
		},
		run: engineRun(RunCombinationSuiteCtx),
	},
	{
		info: ExperimentInfo{
			Name:  "lowpressure",
			Title: "Section 6.1: low-TLB-pressure applications",
			Tags:  []string{"fig6"},
			InAll: true,
		},
		run: engineRun(RunLowPressureCtx),
	},
	{
		info: ExperimentInfo{Name: "table4", Title: "Table 4 (§6.3)", InAll: true},
		run:  engineRun(RunTable4Ctx),
	},
	{
		info: ExperimentInfo{Name: "sec62", Title: "Section 6.2 (reservation waste)", InAll: true},
		run:  engineRun(RunSec62Ctx),
	},
	{
		info: ExperimentInfo{Name: "sec64", Title: "Section 6.4 (allocation latency)", InAll: true},
		run:  engineRun(RunSec64Ctx),
	},
	{
		info: ExperimentInfo{Name: "granularity", Title: "Ablation: reservation granularity", Tags: []string{"ablation"}, InAll: true},
		run:  engineRun(RunGranularityCtx),
	},
	{
		info: ExperimentInfo{Name: "locking", Title: "Ablation: PaRT locking", Tags: []string{"ablation"}, InAll: true},
		run: func(ctx context.Context, p runParams) (ExperimentResult, error) {
			// The locking ablation is a real-concurrency microbenchmark
			// with its own fixed sizing; scale and seed do not apply.
			return RunLockingAblation(64, 20000), nil
		},
	},
	{
		info: ExperimentInfo{Name: "reclaim", Title: "Ablation: reclaim watermark", Tags: []string{"ablation"}, InAll: true},
		run:  engineRun(RunReclaimSweepCtx),
	},
	{
		info: ExperimentInfo{Name: "fivelevel", Title: "Extension: five-level paging", Tags: []string{"ablation"}, InAll: true},
		run:  engineRun(RunFiveLevelComparisonCtx),
	},
	{
		info: ExperimentInfo{Name: "thp", Title: "Baseline: transparent huge pages vs PTEMagnet", Tags: []string{"ablation"}, InAll: true},
		run:  engineRun(RunTHPComparisonCtx),
	},
	{
		info: ExperimentInfo{Name: "capaging", Title: "Baseline: CA paging vs PTEMagnet", Tags: []string{"ablation"}, InAll: true},
		run:  engineRun(RunCAPagingComparisonCtx),
	},
	{
		info: ExperimentInfo{Name: "threshold", Title: "Ablation: enable threshold", Tags: []string{"ablation"}, InAll: true},
		run: func(ctx context.Context, p runParams) (ExperimentResult, error) {
			r, err := RunThresholdDemo(p.scale, p.seed)
			return r, err
		},
	},
	{
		info: ExperimentInfo{Name: "multitenant", Title: "Multi-tenant host (N VMs, shared host)"},
		run: func(ctx context.Context, p runParams) (ExperimentResult, error) {
			r, err := RunMultiTenantCtx(ctx, p.eng, p.scale, p.seed, p.vmCounts)
			return r, err
		},
	},
	{
		info: ExperimentInfo{Name: "migration", Title: "Live migration (dirty-page log, pre-copy)"},
		run: func(ctx context.Context, p runParams) (ExperimentResult, error) {
			r, err := RunMigrationCtx(ctx, p.eng, p.scale, p.seed)
			return r, err
		},
	},
	{
		info: ExperimentInfo{Name: "chaos", Title: "Chaos: fault injection & recovery (default vs PTEMagnet)"},
		run: func(ctx context.Context, p runParams) (ExperimentResult, error) {
			r, err := RunChaosCtx(ctx, p.eng, p.scale, p.seed, p.faults, p.retry)
			return r, err
		},
	},
	{
		info: ExperimentInfo{Name: "overcommit", Title: "Overcommit: watermark ballooning (default vs PTEMagnet, 1.25×–2×)"},
		run:  engineRun(RunOvercommitCtx),
	},
}

// Experiments lists every registered experiment in "all" execution order.
func Experiments() []ExperimentInfo {
	infos := make([]ExperimentInfo, len(experiments))
	for i, e := range experiments {
		infos[i] = e.info
	}
	return infos
}

// MatchExperiments resolves a selector to the experiments it runs, in
// execution order: "all" selects every InAll experiment; anything else
// selects by canonical name or tag. Unknown selectors are an error.
func MatchExperiments(sel string) ([]ExperimentInfo, error) {
	var infos []ExperimentInfo
	for _, e := range experiments {
		if matchExperiment(e.info, sel) {
			infos = append(infos, e.info)
		}
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("sim: unknown experiment %q", sel)
	}
	return infos, nil
}

func matchExperiment(info ExperimentInfo, sel string) bool {
	if sel == "all" {
		return info.InAll
	}
	if sel == info.Name {
		return true
	}
	for _, tag := range info.Tags {
		if sel == tag {
			return true
		}
	}
	return false
}

// RunExperiment runs one experiment by canonical name, configured by
// functional options (scale, seed, engine, fault plan, retry policy,
// collector); omitted options take the documented defaults. Even on error
// the returned result may be non-nil, carrying the partial output the
// engine completed before failing.
func RunExperiment(ctx context.Context, name string, opts ...RunOpt) (ExperimentResult, error) {
	p := defaultRunParams()
	for _, o := range opts {
		if o != nil {
			o(&p)
		}
	}
	if p.collector != nil {
		ctx = obs.WithCollector(ctx, p.collector)
	}
	for _, e := range experiments {
		if e.info.Name == name {
			return e.run(ctx, p)
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q", name)
}
