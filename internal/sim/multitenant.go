// Multi-tenant scenario set: N VMs packed onto one shared host — the
// public-cloud setting of the paper's §2/§3.1, where until now the harness
// simulated colocation only inside a single guest. Guests are a mix of
// primary VMs (running a measured benchmark) and co-runner VMs (running
// only allocator pressure), with per-VM allocator policy, plus a VM-churn
// scenario that boots and kills guests mid-run.
package sim

import (
	"context"
	"fmt"
	"strings"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/vm"
)

// TenantSpec declares one VM of a multi-tenant scenario.
type TenantSpec struct {
	// Policy selects this guest's allocator independently of its
	// neighbours — a tenant can adopt PTEMagnet unilaterally (§4).
	Policy guestos.AllocPolicy
	// Primary is the measured benchmark run in this guest, or "" for a
	// co-runner-only pressure guest.
	Primary string
	// Corunners are the background programs run inside this guest.
	Corunners []string
}

// MultiScenario is one multi-tenant configuration: the tenants, the
// shared-host sizing, and an optional churn schedule.
type MultiScenario struct {
	// Tenants lists the VMs in boot order.
	Tenants []TenantSpec
	// Churn enables the boot/kill schedule: at 1/4 of the access budget a
	// new co-runner guest boots; at 1/2 the last declared co-runner-only
	// guest is destroyed. Both points are access counts, so churn runs are
	// as deterministic as static ones.
	Churn bool
	// Scale sizes each guest (GuestMemBytes per VM) and the shared host;
	// Seed drives all randomness.
	Scale Scale
	Seed  int64
	// SampleEvery forwards to the §6.2 gauge (0 = a sensible default).
	SampleEvery uint64
}

// Fingerprint hashes the full configuration (telemetry identity).
func (s MultiScenario) Fingerprint() string {
	return obs.Fingerprint(fmt.Sprintf("%+v", s))
}

// Identity returns a human-readable label.
func (s MultiScenario) Identity() string {
	primaries := 0
	for _, t := range s.Tenants {
		if t.Primary != "" {
			primaries++
		}
	}
	name := fmt.Sprintf("vms%d(p%d)", len(s.Tenants), primaries)
	if s.Churn {
		name += "+churn"
	}
	return name
}

// MultiResult bundles everything measured in one multi-tenant run.
type MultiResult struct {
	Scenario MultiScenario
	// Report is the machine's aggregated observation, including the
	// per-guest reports and the host-wide fragmentation rollup.
	Report vm.Report
	// PrimarySteadyCycles sums SteadyCycles over every primary task —
	// the cross-VM execution-time metric.
	PrimarySteadyCycles uint64
	// PrimaryFragMean averages the per-primary host-PT fragmentation.
	PrimaryFragMean float64
}

// BuildMultiMachine assembles the shared host and every tenant's guest
// stack and tasks without running — for callers that need to inspect or
// trace before RunWith.
func BuildMultiMachine(s MultiScenario) (*vm.Machine, error) {
	if len(s.Tenants) == 0 {
		return nil, fmt.Errorf("sim: multi-tenant scenario needs at least one tenant")
	}
	hc := hostConfig(s.Scale)
	for i, t := range s.Tenants {
		hc.Guests = append(hc.Guests, vm.GuestConfig{
			MemBytes: s.Scale.GuestMemBytes,
			Policy:   t.Policy,
			// Distinct per-guest kernel seeds derived from the scenario
			// seed, mirroring the per-corunner seed ladder.
			Seed: s.Seed + int64(i)*10,
		})
	}
	m, err := vm.NewHost(hc)
	if err != nil {
		return nil, err
	}
	for i, t := range s.Tenants {
		if err := populateGuest(m.Guests()[i], t, s.Scale, s.Seed+int64(i)*10); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// populateGuest adds one tenant's tasks to its guest.
func populateGuest(g *vm.Guest, t TenantSpec, sc Scale, seed int64) error {
	if t.Primary != "" {
		prog, err := NewBenchmark(t.Primary, sc, seed)
		if err != nil {
			return err
		}
		if _, err := g.AddTask(prog, vm.RolePrimary); err != nil {
			return err
		}
	}
	for i, name := range t.Corunners {
		co, err := NewCorunner(name, sc, seed+int64(i)+100)
		if err != nil {
			return err
		}
		if _, err := g.AddTask(co, vm.RoleCorunner); err != nil {
			return err
		}
	}
	return nil
}

// churnEvents builds the deterministic boot/kill schedule: boot a
// default-policy pressure guest at a quarter of the access budget, kill
// the last declared co-runner-only guest at half.
func churnEvents(s MultiScenario) []vm.RunEvent {
	victim := -1
	for i, t := range s.Tenants {
		if t.Primary == "" {
			victim = i
		}
	}
	events := []vm.RunEvent{{
		AtAccesses: s.Scale.Accesses / 4,
		Do: func(m *vm.Machine) error {
			g, err := m.AddGuest(vm.GuestConfig{
				MemBytes: s.Scale.GuestMemBytes,
				Policy:   guestos.PolicyDefault,
				Seed:     s.Seed + 9000,
			})
			if err != nil {
				return err
			}
			return populateGuest(g, TenantSpec{Corunners: []string{"stress-ng"}}, s.Scale, s.Seed+9000)
		},
	}}
	if victim >= 0 {
		events = append(events, vm.RunEvent{
			AtAccesses: s.Scale.Accesses / 2,
			Do: func(m *vm.Machine) error {
				m.DestroyGuest(m.Guests()[victim])
				return nil
			},
		})
	}
	return events
}

// RunMultiCtx executes one multi-tenant scenario under a cancellable
// context, emitting one RunRecord (with per-guest vm<i>.* counters) when
// the context carries an obs.Collector — the same telemetry contract as
// RunCtx.
func RunMultiCtx(ctx context.Context, s MultiScenario) (MultiResult, error) {
	stop := engine.StartTimer()
	m, err := BuildMultiMachine(s)
	if err != nil {
		return MultiResult{}, err
	}
	opts := []vm.RunOpt{vm.WithSampleEvery(sampleEvery(s.SampleEvery, s.Scale))}
	if s.Churn {
		opts = append(opts, vm.WithEvents(churnEvents(s)...))
	}
	if err := m.RunWith(ctx, opts...); err != nil {
		return MultiResult{}, err
	}
	report := m.Observe()
	res := MultiResult{Scenario: s, Report: report}
	for _, tr := range report.Tasks {
		res.PrimarySteadyCycles += tr.SteadyCycles
		res.PrimaryFragMean += tr.Frag.Mean
	}
	if len(report.Tasks) > 0 {
		res.PrimaryFragMean /= float64(len(report.Tasks))
	}
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

// MultiTenantVMCounts are the VM packings the set sweeps, mirroring
// consolidation ratios on real cloud hosts.
var MultiTenantVMCounts = []int{2, 4, 8}

// multiTenants builds the tenant list for one packing: even slots are
// primary guests (pagerank), odd slots are co-runner-only pressure guests
// (stress-ng, the paper's fragmenter). With magnetOnPrimaries, primary
// guests run PTEMagnet while pressure guests stay on the default
// allocator — per-VM policy heterogeneity.
func multiTenants(numVMs int, magnetOnPrimaries bool) []TenantSpec {
	tenants := make([]TenantSpec, 0, numVMs)
	for i := 0; i < numVMs; i++ {
		t := TenantSpec{Policy: guestos.PolicyDefault}
		if i%2 == 0 {
			t.Primary = "pagerank"
			if magnetOnPrimaries {
				t.Policy = guestos.PolicyPTEMagnet
			}
		} else {
			t.Corunners = []string{"stress-ng"}
		}
		tenants = append(tenants, t)
	}
	return tenants
}

// MultiTenantEntry is one VM-count's default-vs-PTEMagnet comparison.
type MultiTenantEntry struct {
	NumVMs int
	// FragDefault/FragMagnet average host-PT fragmentation over the
	// primaries; SpeedupPct is the PTEMagnet improvement in summed
	// primary steady cycles.
	FragDefault float64
	FragMagnet  float64
	SpeedupPct  float64
	// HostFragDefault/HostFragMagnet are the host-wide §3.2 rollups.
	HostFragDefault float64
	HostFragMagnet  float64
}

// MultiTenantResult covers the VM-count sweep plus the churn run.
type MultiTenantResult struct {
	Entries []MultiTenantEntry
	// Churn is the churn scenario's result (PTEMagnet primaries).
	Churn MultiResult
}

func multiTenantJobName(numVMs int, magnet bool) string {
	policy := "default"
	if magnet {
		policy = "ptemagnet"
	}
	return fmt.Sprintf("vms%d/%s", numVMs, policy)
}

// MultiTenantSet declares the multi-tenant sweep: for each VM count, the
// same packing with default-only allocators and with PTEMagnet in the
// primary guests, plus one churn scenario. vmCounts nil selects
// MultiTenantVMCounts; a subset (e.g. from the -vms flag) narrows the
// sweep.
func MultiTenantSet(sc Scale, seed int64, vmCounts []int) engine.Set[MultiResult, MultiTenantResult] {
	if len(vmCounts) == 0 {
		vmCounts = MultiTenantVMCounts
	}
	vmCounts = append([]int(nil), vmCounts...)
	var jobs []engine.Scenario[MultiResult]
	job := func(name string, s MultiScenario) engine.Scenario[MultiResult] {
		return engine.Scenario[MultiResult]{Name: name, Run: func(ctx context.Context) (MultiResult, error) {
			return RunMultiCtx(ctx, s)
		}}
	}
	for _, n := range vmCounts {
		for _, magnet := range []bool{false, true} {
			jobs = append(jobs, job(multiTenantJobName(n, magnet), MultiScenario{
				Tenants: multiTenants(n, magnet),
				Scale:   sc,
				Seed:    seed,
			}))
		}
	}
	jobs = append(jobs, job("churn", MultiScenario{
		Tenants: multiTenants(3, true),
		Churn:   true,
		Scale:   sc,
		Seed:    seed,
	}))
	return engine.Set[MultiResult, MultiTenantResult]{
		Name:      "multitenant",
		Scenarios: jobs,
		Reduce: func(res engine.Results[MultiResult]) (MultiTenantResult, error) {
			if err := res.FailedErr(); err != nil {
				return MultiTenantResult{}, err
			}
			var out MultiTenantResult
			for _, n := range vmCounts {
				def, _ := res.Get(multiTenantJobName(n, false))
				mag, _ := res.Get(multiTenantJobName(n, true))
				out.Entries = append(out.Entries, MultiTenantEntry{
					NumVMs:          n,
					FragDefault:     def.PrimaryFragMean,
					FragMagnet:      mag.PrimaryFragMean,
					SpeedupPct:      metrics.Speedup(def.PrimarySteadyCycles, mag.PrimarySteadyCycles),
					HostFragDefault: def.Report.HostFrag.Mean,
					HostFragMagnet:  mag.Report.HostFrag.Mean,
				})
			}
			out.Churn, _ = res.Get("churn")
			return out, nil
		},
	}
}

// RunMultiTenantCtx runs the multi-tenant sweep through the given engine.
func RunMultiTenantCtx(ctx context.Context, e *engine.Engine, sc Scale, seed int64, vmCounts []int) (MultiTenantResult, error) {
	return engine.Execute(ctx, e, MultiTenantSet(sc, seed, vmCounts))
}

// String renders the sweep as one table plus the churn summary.
func (r MultiTenantResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant host: N VMs sharing one host (primaries pagerank, pressure guests stress-ng)\n")
	fmt.Fprintf(&b, "  %-6s  %-24s  %-24s  %s\n", "VMs", "primary frag (def→mag)", "host frag (def→mag)", "improvement")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-6d  %10.2f → %-11.2f  %10.2f → %-11.2f  %+6.1f%%\n",
			e.NumVMs, e.FragDefault, e.FragMagnet, e.HostFragDefault, e.HostFragMagnet, e.SpeedupPct)
	}
	ch := r.Churn
	alive := 0
	for _, g := range ch.Report.Guests {
		if g.Alive {
			alive++
		}
	}
	fmt.Fprintf(&b, "  churn: %d guests booted, %d alive at end, primary frag %.2f, host frag %.2f\n",
		len(ch.Report.Guests), alive, ch.PrimaryFragMean, ch.Report.HostFrag.Mean)
	return b.String()
}
