package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"ptemagnet/internal/sim"
)

// perLayerMetrics are the names BENCHMARK.json lists under per_layer, in
// print order. README.md states which end-to-end metric and workload each
// layer is predicted to move.
var perLayerMetrics = []string{
	"workload.accesses", "workload.step_ns",
	"tlb.lookups", "tlb.miss_ratio", "tlb.lookup_ns",
	"nested.walks", "nested.walks_per_kacc", "nested.pwc_hit_ratio", "nested.ntlb_hit_ratio",
	"nested.mem_refs", "nested.sim_cycles_per_walk", "nested.fast_ns", "nested.walk_ns",
	"cache.accesses", "cache.l1_hit_ratio", "cache.mem_ratio", "cache.access_ns",
	"guestos.faults", "guestos.faults_per_kacc", "guestos.buddy_calls",
	"guestos.fault_ns.default", "guestos.fault_ns.ptemagnet", "guestos.replay_match",
	"core.reservations", "core.hit_ratio", "buddy.guest.allocs", "buddy.host.allocs",
	"hostos.faults", "hostos.fault_ns",
	"vm.build_ms", "vm.run_s",
	"engine.scenario_ms_p50", "engine.scenario_ms_p80",
	"sim.scenarios", "sim.unique_scenarios", "sim.scenario_s", "sim.unique_s",
	"trace.coverage", "trace.overhead_pct",
}

// counts sums registry counters over scenarios.
type counts map[string]uint64

func sumCounters(runs []scenarioRun) counts {
	c := counts{}
	for _, r := range runs {
		if r.err == nil {
			r.counters.Each(func(name string, v uint64) { c[name] += v })
		}
	}
	return c
}

// prefix sums every counter whose name starts with p (histograms and
// per-kind groups).
func (c counts) prefix(p string) uint64 {
	var n uint64
	for name, v := range c {
		if strings.HasPrefix(name, p) {
			n += v
		}
	}
	return n
}

func ratio(a, b uint64) float64 { return share(float64(a), float64(b)) }

// share is a/b, or 0 when b is 0 (a failed run), so that every reported
// value stays finite and the result line can still be printed.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addCounts reports the exact simulated counts of every layer.
func addCounts(rep *report, c counts) {
	acc := c["machine.accesses"]
	rep.add("workload.accesses", float64(acc), "count", "simulated accesses")
	rep.add("tlb.lookups", float64(c["tlb.lookups"]), "count", "")
	// Misses rather than hits: first-touch never hits, and a reported
	// value may not be 0.
	rep.add("tlb.miss_ratio", 1-ratio(c["tlb.l1_hits"]+c["tlb.l2_hits"], c["tlb.lookups"]), "ratio", "1 - (L1+L2 hits) / lookups")
	walks := c["walker.walks"]
	rep.add("nested.walks", float64(walks), "count", "")
	rep.add("nested.walks_per_kacc", 1000*ratio(walks, acc), "1/kacc", "")
	rep.add("nested.pwc_hit_ratio", ratio(c["walker.guest.pwc_hits"], walks), "ratio", "guest PWC hits / walks")
	// The nested TLB is probed once per guest page-table entry read and once
	// for the data page of every walk that finds a mapping.
	ntlbProbes := c["walker.guest.accesses"] + walks - c["walker.guest_faults"]
	rep.add("nested.ntlb_hit_ratio", ratio(c["walker.ntlb_hits"], ntlbProbes), "ratio", "nested TLB hits / probes")
	rep.add("nested.mem_refs", float64(c["walker.guest.accesses"]+c["walker.host.accesses"]), "count", "page-table entry reads, both dimensions")
	rep.add("nested.sim_cycles_per_walk", ratio(c["walker.walk_cycles"], walks), "cycles", "simulated")
	cacheAcc := c.prefix("cache.served.")
	rep.add("cache.accesses", float64(cacheAcc), "count", "data and page-table accesses")
	rep.add("cache.l1_hit_ratio", ratio(c["cache.served.l1"], cacheAcc), "ratio", "")
	rep.add("cache.mem_ratio", ratio(c["cache.served.memory"], cacheAcc), "ratio", "served by memory / accesses")
	faults := c.prefix("guest.faults.")
	rep.add("guestos.faults", float64(faults), "count", "")
	rep.add("guestos.faults_per_kacc", 1000*ratio(faults, acc), "1/kacc", "")
	rep.add("guestos.buddy_calls", float64(c["guest.buddy_calls"]), "count", "")
	// The PaRT reports through the guest's fault kinds: each reservation
	// starts with a magnet-new fault, and a magnet-hit is served from one.
	newRes, hits := c["guest.faults.magnet-new"], c["guest.faults.magnet-hit"]
	rep.add("core.reservations", float64(newRes), "count", "PaRT reservations created")
	rep.add("core.hit_ratio", ratio(hits, newRes+hits), "ratio", "PTEMagnet faults served from a reservation")
	rep.add("buddy.guest.allocs", float64(c.prefix("buddy.guest.alloc_calls[")), "count", "")
	rep.add("buddy.host.allocs", float64(c.prefix("buddy.host.alloc_calls[")), "count", "")
	rep.add("hostos.faults", float64(c["walker.host_faults"]), "count", "")
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// addScenarioStats reports engine and sim figures over the executed
// scenarios: latency percentiles, and the scenarios that do not repeat an
// earlier one exactly (same fingerprint, same counters). The repeats, what
// a per-process scenario memo could save, are sim.scenarios less
// sim.unique_scenarios and sim.scenario_s less sim.unique_s; they are
// reported by difference because a reported value may not be 0, and only
// sweep repeats.
func addScenarioStats(rep *report, runs []scenarioRun) {
	var ms []float64
	seen := map[string]bool{}
	var totalS, uniqueS float64
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		s := r.setupS + r.runS
		ms = append(ms, s*1e3)
		totalS += s
		if !seen[r.digest] {
			uniqueS += s
		}
		seen[r.digest] = true
	}
	n := fmt.Sprintf("over %d scenarios", len(ms))
	rep.add("engine.scenario_ms_p50", percentile(ms, 0.5), "ms", n)
	rep.add("engine.scenario_ms_p80", percentile(ms, 0.8), "ms", n)
	rep.add("sim.scenarios", float64(len(ms)), "count", "")
	rep.add("sim.unique_scenarios", float64(len(seen)), "count", fmt.Sprintf("%d repeat an earlier scenario's fingerprint and counters", len(ms)-len(seen)))
	rep.add("sim.scenario_s", totalS, "s", "host time of every scenario")
	rep.add("sim.unique_s", uniqueS, "s", fmt.Sprintf("host time of the unique ones; repeats took %.3f s", totalS-uniqueS))
}

// traceWorkload is the traced run: per-layer counts and host times.
func traceWorkload(ctx context.Context, w workloadSpec, sc scales, seed int64, want digests) (result, *report, []string) {
	tr := &tracer{epoch: time.Now()}
	res := result{Metrics: map[string]metric{}}
	var problems []string
	fail := func(format string, args ...any) {
		res.Failed++
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// The scenarios whose streams are replayed: the workload's pair, or
	// for sweep the walk pair at the sweep's scale.
	var replay []sim.Scenario
	wholeRun := w.wholeRun
	var counted pass
	if w.pair != nil {
		for _, pol := range policies {
			s := w.pair(seed)
			s.Policy = pol
			replay = append(replay, s)
		}
	} else {
		start := tr.since()
		counted = runPass(ctx, w, sc, seed)
		tr.record("sweep", "sweep", "", start, uint64(len(counted.runs)), 0)
		walk, _ := findWorkload(sc, "walk")
		for _, pol := range policies {
			s := walk.pair(seed)
			s.Scale = sc.sweep
			s.Policy = pol
			replay = append(replay, s)
		}
		wholeRun = walk.wholeRun
	}

	lt := &layerTimes{ns: map[string]float64{}, calls: map[string]uint64{}}
	clock := clockNS()
	var untracedS, tracedS, buildS float64
	var matched, recorded uint64
	var replayPass pass
	for _, s := range replay {
		settle()
		t, err := traceScenario(ctx, tr, s, wholeRun, lt, clock)
		res.Attempted += 2
		replayPass.runs = append(replayPass.runs, t.untraced)
		if err != nil {
			fail("%s: %v", s.Identity(), err)
			continue
		}
		untracedS += t.untraced.runS
		tracedS += t.traced.runS
		buildS += t.untraced.setupS
		matched += t.matched
		recorded += t.recorded
	}
	if w.pair != nil {
		counted = replayPass
	}
	a, f, probs := checkPass(counted, want)
	if w.pair == nil {
		res.Attempted += a
	}
	res.Failed += f
	problems = append(problems, probs...)
	if matched != recorded {
		fail("replay reproduced %d of %d guest fault kinds", matched, recorded)
	}
	res.Correct = res.Failed == 0

	rep := newReport()
	rep.add("fail_ratio", ratio(uint64(res.Failed), uint64(res.Attempted)), "ratio",
		fmt.Sprintf("%d of %d scenario runs failed", res.Failed, res.Attempted))
	addCounts(rep, sumCounters(counted.runs))
	base := "replayed " + strings.Join(scenarioNames(replay), ", ")
	rep.add("workload.step_ns", lt.perCall("workload.step"), "ns", fmt.Sprintf("StepBatch per access over a stub Env; %s", base))
	rep.add("tlb.lookup_ns", lt.perCall("tlb.lookup"), "ns", "TwoLevel Lookup, Insert on miss")
	rep.add("nested.fast_ns", lt.perCall("nested.fast"), "ns", "TranslateFast per access")
	rep.add("nested.walk_ns", lt.perCall("nested.walk"), "ns", fmt.Sprintf("TranslateSlow per walk, less %.0f ns clock cost", clock))
	rep.add("cache.access_ns", lt.perCall("cache.access"), "ns", "Hierarchy.Access per data access, in the re-execution, less clock cost")
	rep.add("guestos.fault_ns.default", lt.perCall("guestos.fault.default"), "ns", "HandlePageFault per fault, less clock cost")
	rep.add("guestos.fault_ns.ptemagnet", lt.perCall("guestos.fault.ptemagnet"), "ns", "")
	rep.add("guestos.replay_match", ratio(matched, recorded), "ratio", "replayed fault kinds equal to recorded")
	rep.add("hostos.fault_ns", lt.perCall("hostos.fault"), "ns", "VM.HandleFault in first-touch order, fresh kernel")
	rep.add("vm.build_ms", 1e3*buildS/float64(max(len(replay), 1)), "ms", "BuildMachine per scenario, untraced")
	rep.add("vm.run_s", untracedS, "s", "RunWith, untraced, summed over "+base)
	addScenarioStats(rep, counted.runs)
	// Coverage: the layers' replayed cost of the calls the untraced run
	// made, over its host time. tlb is inside nested.fast and hostos inside
	// nested.walk, so neither is added again.
	rc := sumCounters(replayPass.runs)
	acc := float64(rc["machine.accesses"])
	covered := lt.perCall("workload.step")*acc + lt.perCall("nested.fast")*float64(rc["walker.lookups"]) +
		lt.perCall("nested.walk")*float64(rc["walker.walks"]) + lt.perCall("guestos.fault")*float64(rc.prefix("guest.faults.")) +
		lt.perCall("cache.access")*acc
	rep.add("trace.coverage", share(covered, untracedS*1e9), "ratio", fmt.Sprintf("Σ layer ns/call × calls / untraced RunWith time %.3f s", untracedS))
	rep.add("trace.overhead_pct", 100*share(tracedS-untracedS, untracedS), "%", fmt.Sprintf("traced RunWith %.3f s vs untraced %.3f s", tracedS, untracedS))

	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, seed)
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, name := range perLayerMetrics {
		res.Metrics[name] = rep.metrics[name]
	}
	return res, rep, problems
}

func scenarioNames(ss []sim.Scenario) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.Identity())
	}
	return out
}
