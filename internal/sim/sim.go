// Package sim is the experiment harness: it names the paper's benchmarks
// and co-runners, assembles scenarios (benchmark × co-runner set × allocator
// policy) on the simulated platform, and provides one function per table or
// figure of the paper's evaluation (§3.3, §6.1–§6.4) plus the ablations
// DESIGN.md calls out.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"ptemagnet/internal/cache"
	"ptemagnet/internal/core"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// Scale sets the experiment sizing. The paper runs 16GB datasets in a 64GB
// VM; the default scale reproduces the same ratios at 1/256.
type Scale struct {
	HostMemBytes      uint64
	GuestMemBytes     uint64
	DatasetBytes      uint64 // primary benchmark footprint
	Accesses          uint64 // primary steady-state access budget
	CorunnerFootprint uint64 // footprint of the big co-runners
	// LLCBytes and L2Bytes optionally shrink the caches so that a reduced
	// DatasetBytes keeps the paper's footprint-to-cache ratio (the effect
	// under study is hPTE footprint versus cache capacity: the paper's
	// 16GB dataset is 640x its 25MB LLC). Zero keeps the default level.
	LLCBytes uint64
	L2Bytes  uint64
}

// DefaultScale is used by cmd/experiments and the benchmark harness.
func DefaultScale() Scale {
	return Scale{
		HostMemBytes:      512 << 20,
		GuestMemBytes:     256 << 20,
		DatasetBytes:      48 << 20,
		Accesses:          1_500_000,
		CorunnerFootprint: 24 << 20,
		LLCBytes:          256 << 10,
	}
}

// QuickScale is a fast variant for tests: the dataset shrinks 4x relative
// to DefaultScale and the LLC shrinks with it, preserving the
// hPTE-footprint-to-LLC ratio the paper's effect depends on.
func QuickScale() Scale {
	return Scale{
		HostMemBytes:      128 << 20,
		GuestMemBytes:     64 << 20,
		DatasetBytes:      12 << 20,
		Accesses:          80_000,
		CorunnerFootprint: 6 << 20,
		LLCBytes:          128 << 10,
		L2Bytes:           64 << 10,
	}
}

// Benchmarks lists the paper's evaluated benchmarks in Figure 6/7 order.
var Benchmarks = []string{"cc", "bfs", "nibble", "pagerank", "gcc", "mcf", "omnetpp", "xz"}

// Corunners lists the paper's Table 3 co-runner set (the Figure 7
// combination).
var Corunners = []string{"objdet", "chameleon", "pyaes", "json_serdes", "rnn_serving", "gcc-co", "xz-co"}

// NewBenchmark constructs a primary benchmark by name.
func NewBenchmark(name string, sc Scale, seed int64) (workload.Program, error) {
	g := workload.GraphConfig{DatasetBytes: sc.DatasetBytes, Accesses: sc.Accesses, Seed: seed}
	s := func(frac float64, accFrac float64) workload.SpecConfig {
		return workload.SpecConfig{
			FootprintBytes: uint64(float64(sc.DatasetBytes) * frac),
			Accesses:       uint64(float64(sc.Accesses) * accFrac),
			Seed:           seed,
		}
	}
	switch name {
	case "pagerank":
		return workload.NewPagerank(g), nil
	case "cc":
		return workload.NewCC(g), nil
	case "bfs":
		return workload.NewBFS(g), nil
	case "nibble":
		return workload.NewNibble(g), nil
	case "mcf":
		return workload.NewMCF(s(0.85, 1)), nil
	case "gcc":
		return workload.NewGCC(s(0.25, 0.8)), nil
	case "omnetpp":
		return workload.NewOmnetpp(s(0.5, 0.9)), nil
	case "xz":
		return workload.NewXZ(s(0.75, 1)), nil
	case "allocmicro":
		// §6.4: the array fills most of guest memory (60GB of 64GB in the
		// paper); leave headroom for co-resident structures and PT nodes.
		return workload.NewAllocMicro(sc.GuestMemBytes * 3 / 5), nil
	case "sparse":
		// §6.2 adversary: a large sparse span, one page per 32KB group.
		return workload.NewSparse(sc.DatasetBytes), nil
	default:
		return nil, fmt.Errorf("sim: unknown benchmark %q", name)
	}
}

// NewCorunner constructs a co-runner by name. "gcc-co" and "xz-co" are the
// SPEC benchmarks run as effectively unbounded co-runners, as in Table 3.
func NewCorunner(name string, sc Scale, seed int64) (workload.Program, error) {
	c := workload.CorunnerConfig{Seed: seed}
	forever := uint64(math.MaxUint64 / 2)
	switch name {
	case "objdet":
		c.FootprintBytes = sc.CorunnerFootprint
		return workload.NewObjdet(c), nil
	case "stress-ng":
		c.FootprintBytes = sc.CorunnerFootprint
		return workload.NewStressNG(c), nil
	case "chameleon":
		return workload.NewChameleon(c), nil
	case "pyaes":
		return workload.NewPyaes(c), nil
	case "json_serdes":
		return workload.NewJSONSerdes(c), nil
	case "rnn_serving":
		return workload.NewRNNServing(c), nil
	case "gcc-co":
		return workload.NewGCC(workload.SpecConfig{FootprintBytes: sc.CorunnerFootprint / 2, Accesses: forever, Seed: seed}), nil
	case "xz-co":
		return workload.NewXZ(workload.SpecConfig{FootprintBytes: sc.CorunnerFootprint / 2, Accesses: forever, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("sim: unknown co-runner %q", name)
	}
}

// Scenario is one measured configuration.
type Scenario struct {
	// Benchmark is the primary workload name; Corunners the colocated set.
	Benchmark string
	Corunners []string
	// Policy selects the guest allocator.
	Policy guestos.AllocPolicy
	// Magnet optionally overrides the PaRT configuration (ablations).
	Magnet core.Config
	// EnableThresholdBytes and ReclaimWatermark forward to the kernel.
	EnableThresholdBytes uint64
	ReclaimWatermark     float64
	// StopCorunnersAtInit applies the §3.3 Table 1 methodology.
	StopCorunnersAtInit bool
	// Scale sizes everything; Seed drives all randomness.
	Scale Scale
	Seed  int64
	// SampleEvery enables the §6.2 gauge (0 = a sensible default).
	SampleEvery uint64
	// PTLevels selects the page-table depth (0/4 = four-level, 5 = LA57).
	PTLevels int
}

// Fingerprint hashes the full scenario configuration into the telemetry
// identity carried by every RunRecord. Two scenarios fingerprint equal iff
// their configurations (including seed and scale) are identical.
func (s Scenario) Fingerprint() string {
	return obs.Fingerprint(fmt.Sprintf("%+v", s))
}

// Identity returns a human-readable scenario label, used as the telemetry
// scenario name when RunCtx executes outside an engine set (no
// engine.ScenarioInfo on the context).
func (s Scenario) Identity() string {
	name := s.Benchmark
	if len(s.Corunners) > 0 {
		name += "+" + strings.Join(s.Corunners, ",")
	}
	return name + "/" + s.Policy.String()
}

// Result bundles everything measured in one run.
type Result struct {
	Scenario Scenario
	// Report is the machine's aggregated observation: whole-run and
	// steady-window counters for every component plus per-primary task
	// reports (DESIGN.md §8).
	Report vm.Report
	// Task is the primary benchmark's report.
	Task vm.TaskReport
	// Walk holds the steady-window walker counters.
	Walk nested.Stats
	// Guest is the guest kernel's activity.
	Guest guestos.Stats
	// UnusedMax/UnusedMean summarize the §6.2 gauge (pages).
	UnusedMax  int64
	UnusedMean float64
	// FootprintPages is the primary's resident set at the end.
	FootprintPages uint64
	// MagnetStats is the primary's PaRT activity (zero when disabled).
	MagnetStats core.Stats
	// LargeMappings is the primary's live 2MB mappings at the end (THP
	// policy only).
	LargeMappings uint64
}

// BuildMachine assembles the machine and tasks for a scenario without
// running it — for callers that need to attach a tracer or inspect state
// before RunWith.
func BuildMachine(s Scenario) (*vm.Machine, error) {
	return buildMachine(s, hostConfig(s.Scale))
}

// hostConfig sizes the shared host every experiment machine runs on: the
// scale's host memory, the default eight vCPUs, the scale's LLC/L2
// override, and Quantum 2 — aggressive fault interleaving, approximating
// truly concurrent threads on separate cores (calibrated against Table 1).
// Callers append the guests and arm per-experiment knobs (balloon, host
// size) on the result.
func hostConfig(sc Scale) vm.HostConfig {
	hc := vm.HostConfig{HostMemBytes: sc.HostMemBytes, Quantum: 2}
	if sc.LLCBytes != 0 || sc.L2Bytes != 0 {
		cc := cache.DefaultConfig(8)
		if sc.LLCBytes != 0 {
			cc.LLC.SizeBytes = sc.LLCBytes
		}
		if sc.L2Bytes != 0 {
			cc.L2.SizeBytes = sc.L2Bytes
		}
		hc.Cache = cc
	}
	return hc
}

// sampleEvery resolves the §6.2 gauge period: n when set, else 64 samples
// over the primary's access budget (every 1024 accesses for a tiny one).
func sampleEvery(n uint64, sc Scale) uint64 {
	if n != 0 {
		return n
	}
	if every := sc.Accesses / 64; every != 0 {
		return every
	}
	return 1024
}

// buildMachine boots s as the single guest of host hc and adds its tasks.
// Internal callers pass a host with knobs deliberately kept out of
// Scenario (whose %+v rendering is a frozen telemetry fingerprint).
func buildMachine(s Scenario, hc vm.HostConfig) (*vm.Machine, error) {
	hc.PTLevels = s.PTLevels
	hc.Guests = []vm.GuestConfig{{
		MemBytes:             s.Scale.GuestMemBytes,
		Policy:               s.Policy,
		Magnet:               s.Magnet,
		EnableThresholdBytes: s.EnableThresholdBytes,
		ReclaimWatermark:     s.ReclaimWatermark,
		Seed:                 s.Seed,
	}}
	m, err := vm.NewHost(hc)
	if err != nil {
		return nil, err
	}
	prog, err := NewBenchmark(s.Benchmark, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := m.AddTask(prog, vm.RolePrimary); err != nil {
		return nil, err
	}
	for i, name := range s.Corunners {
		co, err := NewCorunner(name, s.Scale, s.Seed+int64(i)+100)
		if err != nil {
			return nil, err
		}
		if _, err := m.AddTask(co, vm.RoleCorunner); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RunCtx executes one scenario under a cancellable context. Each call
// builds its own machine, so concurrent RunCtx calls (the engine's
// parallel runner) share no mutable state.
//
// When the context carries an obs.Collector (obs.WithCollector), RunCtx
// emits one RunRecord per run: the scenario identity (from the engine's
// ScenarioInfo when executing inside a set), the configuration
// fingerprint, the wall-clock time measured through engine.StartTimer,
// and the machine's full counter registry.
func RunCtx(ctx context.Context, s Scenario) (Result, error) {
	stop := engine.StartTimer()
	m, err := BuildMachine(s)
	if err != nil {
		return Result{}, err
	}
	task := m.Tasks()[0]
	if err := m.RunWith(ctx,
		vm.WithStopCorunnersAtInit(s.StopCorunnersAtInit),
		vm.WithSampleEvery(sampleEvery(s.SampleEvery, s.Scale))); err != nil {
		return Result{}, err
	}
	report := m.Observe()
	res := Result{
		Scenario:       s,
		Report:         report,
		Task:           report.Tasks[0],
		Walk:           report.Steady.Walker,
		Guest:          report.Whole.Guest,
		UnusedMax:      m.UnusedSeries().Max(),
		UnusedMean:     m.UnusedSeries().Mean(),
		FootprintPages: task.Process().RSS(),
	}
	if part := task.Process().Part(); part != nil {
		res.MagnetStats = part.Snapshot()
	}
	res.LargeMappings = task.Process().PageTable().LargeMappings()
	if c := obs.CollectorFrom(ctx); c != nil {
		rec := obs.RunRecord{
			Set:         "adhoc",
			Scenario:    s.Identity(),
			Fingerprint: s.Fingerprint(),
			ElapsedMS:   stop().Milliseconds(),
			Counters:    m.Registry().Snapshot(),
		}
		if info, ok := engine.ScenarioInfoFrom(ctx); ok {
			rec.Set, rec.Scenario = info.Set, info.Scenario
		}
		c.Add(rec)
	}
	return res, nil
}

// Speedup returns the percentage improvement of this result over base,
// using steady-state cycles (the paper's execution-time metric).
func (r Result) Speedup(base Result) float64 {
	return metrics.Speedup(base.Task.SteadyCycles, r.Task.SteadyCycles)
}

// RunPairCtx runs the same scenario under the default policy and under
// PTEMagnet, returning (default, magnet).
func RunPairCtx(ctx context.Context, s Scenario) (Result, Result, error) {
	s.Policy = guestos.PolicyDefault
	def, err := RunCtx(ctx, s)
	if err != nil {
		return Result{}, Result{}, fmt.Errorf("default run: %w", err)
	}
	s.Policy = guestos.PolicyPTEMagnet
	mag, err := RunCtx(ctx, s)
	if err != nil {
		return Result{}, Result{}, fmt.Errorf("ptemagnet run: %w", err)
	}
	return def, mag, nil
}

// sortedCopy returns a sorted copy (used for stable report output).
func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
