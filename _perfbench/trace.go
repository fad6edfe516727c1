package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/tlb"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// The traced run (-trace 1) measures host time per layer without
// instrumenting the program. Each scenario runs twice: untraced, for the
// reference digest and run time, and traced, recording the access, fault,
// mmap and free streams through the public vm.Tracer and a wrapped
// workload.Env. The traced run's digest must equal the untraced one: the
// recording perturbs nothing. The streams are then replayed into each
// layer's public functions from this file, and every replay is one span.
//
// Frequent, cheap calls (workload steps, TLB probes, TranslateFast, host
// faults) are timed in bulk over an isolated replay of their recorded
// input, so no clock read sits between two calls. Walks, guest faults and
// data cache accesses depend on the state the whole pipeline builds, so
// they are timed inside a re-execution of the machine loop, less the
// calibrated cost of reading the clock. The re-execution makes the calls
// vm's execBatch makes, in the same order, and its walker, TLB and cache
// counters must equal the traced run's.

// span is one timed interval of the traced run.
type span struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Calls and SelfNS describe a replay span: how many layer calls it
	// timed and their summed time (which excludes harness work between
	// calls).
	Calls  uint64 `json:"calls,omitempty"`
	SelfNS int64  `json:"self_ns,omitempty"`
}

// tracer keeps the run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) since() int64 { return time.Since(t.epoch).Nanoseconds() }

// record appends a span that started at start (from since) and ends now.
func (t *tracer) record(name, scenario, parent string, start int64, calls uint64, selfNS int64) {
	t.spans = append(t.spans, span{Name: name, Scenario: scenario, Parent: parent,
		StartNS: start, EndNS: t.since(), Calls: calls, SelfNS: selfNS})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Access streams pack one access into a word: the VA in the low 57 bits
// (five-level paging's width), the write flag above it, the task index in
// the top six bits.
const (
	writeBit  = 57
	taskShift = 58
	vaMask    = 1<<writeBit - 1
)

func pack(task int, va arch.VirtAddr, write bool) uint64 {
	w := uint64(task)<<taskShift | uint64(va)&vaMask
	if write {
		w |= 1 << writeBit
	}
	return w
}

func unpack(w uint64) (task int, va arch.VirtAddr, write bool) {
	return int(w >> taskShift), arch.VirtAddr(w & vaMask), w&(1<<writeBit) != 0
}

type opKind uint8

const (
	opSpawn opKind = iota
	opMmap
	opFree
)

// envOp is one call a program made into its environment. at is the number
// of accesses the machine had executed when the call was made: programs
// call their Env only at batch heads, so the call precedes access at.
type envOp struct {
	kind  opKind
	task  int
	at    uint64
	va    arch.VirtAddr
	bytes uint64
	name  string // opSpawn: process name
}

// fault is one recorded guest fault: seq is the 1-based index of the
// faulting access.
type fault struct {
	seq  uint64
	kind uint8
}

// recorder is the traced run's vm.Tracer and Env wrapper.
type recorder struct {
	m       *vm.Machine
	acc     []uint64
	faults  []fault
	ops     []envOp
	perTask []uint64
}

func (r *recorder) AccessBatch(recs []vm.AccessRecord) {
	for _, a := range recs {
		r.acc = append(r.acc, pack(a.Task, a.VA, a.Write))
		r.perTask[a.Task]++
	}
}

func (r *recorder) Fault(task int, va arch.VirtAddr, kind uint8, seq uint64) {
	r.faults = append(r.faults, fault{seq: seq, kind: kind})
}

// recProg wraps a program so its Env calls are recorded; everything else
// delegates, so the machine runs exactly the wrapped program.
type recProg struct {
	workload.Program
	batch workload.BatchProgram
	rec   *recorder
	task  int
}

func (p *recProg) env(e workload.Env) workload.Env { return recEnv{Env: e, p: p} }

func (p *recProg) Setup(e workload.Env) error {
	p.rec.ops = append(p.rec.ops, envOp{kind: opSpawn, task: p.task, name: p.Name(), bytes: p.FootprintBytes()})
	return p.Program.Setup(p.env(e))
}

func (p *recProg) Step(e workload.Env) (workload.Access, bool) { return p.Program.Step(p.env(e)) }

func (p *recProg) StepBatch(e workload.Env, buf []workload.Access) (int, bool) {
	return p.batch.StepBatch(p.env(e), buf)
}

type recEnv struct {
	workload.Env
	p *recProg
}

func (e recEnv) Mmap(bytes uint64) (arch.VirtAddr, error) {
	va, err := e.Env.Mmap(bytes)
	if err == nil {
		r := e.p.rec
		r.ops = append(r.ops, envOp{kind: opMmap, task: e.p.task, at: r.m.TotalAccesses(), va: va, bytes: bytes})
	}
	return va, err
}

func (e recEnv) Free(va arch.VirtAddr, bytes uint64) error {
	err := e.Env.Free(va, bytes)
	if err == nil {
		r := e.p.rec
		r.ops = append(r.ops, envOp{kind: opFree, task: e.p.task, at: r.m.TotalAccesses(), va: va, bytes: bytes})
	}
	return err
}

// programs builds a scenario's tasks the way sim.BuildMachine does: the
// primary benchmark, then each co-runner seeded seed+i+100. The traced
// run's digest check proves the assembly matches.
func programs(s sim.Scenario) ([]workload.Program, []vm.Role, error) {
	p, err := sim.NewBenchmark(s.Benchmark, s.Scale, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	progs, roles := []workload.Program{p}, []vm.Role{vm.RolePrimary}
	for i, name := range s.Corunners {
		co, err := sim.NewCorunner(name, s.Scale, s.Seed+int64(i)+100)
		if err != nil {
			return nil, nil, err
		}
		progs, roles = append(progs, co), append(roles, vm.RoleCorunner)
	}
	return progs, roles, nil
}

// layerTimes accumulates host time and calls per layer.
type layerTimes struct {
	ns    map[string]float64
	calls map[string]uint64
}

func (l *layerTimes) add(layer string, ns float64, calls uint64) {
	l.ns[layer] += ns
	l.calls[layer] += calls
}

func (l *layerTimes) perCall(layer string) float64 {
	if l.calls[layer] == 0 {
		return 0
	}
	return l.ns[layer] / float64(l.calls[layer])
}

// traced is what the traced run of one scenario yields.
type traced struct {
	untraced, traced scenarioRun
	// matched and recorded count replayed fault kinds equal to the
	// recorded ones, and recorded faults.
	matched, recorded uint64
}

// clockNS is the calibrated cost of one timed interval: the median of
// back-to-back time.Now/time.Since pairs.
func clockNS() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// traceScenario runs s untraced and traced, checks the two digests agree,
// and replays the recorded streams into every layer.
func traceScenario(ctx context.Context, tr *tracer, s sim.Scenario, wholeRun bool, lt *layerTimes, clock float64) (traced, error) {
	id := s.Identity()
	var out traced
	root := tr.since()
	defer func() { tr.record("scenario", id, "", root, 0, 0) }()

	start := tr.since()
	var m0 *vm.Machine
	out.untraced, m0 = runScenario(ctx, s, wholeRun, nil)
	tr.record("vm.untraced", id, "scenario", start, 0, 0)
	if out.untraced.err != nil {
		return out, out.untraced.err
	}
	hc := m0.HostConfig()

	start = tr.since()
	progs, roles, err := programs(s)
	if err != nil {
		return out, err
	}
	stop := startClock()
	m, err := vm.NewHost(hc)
	if err != nil {
		return out, err
	}
	rec := &recorder{m: m, perTask: make([]uint64, len(progs))}
	for i, p := range progs {
		wrapped := &recProg{Program: p, batch: workload.AsBatch(p), rec: rec, task: i}
		if _, err := m.AddTask(wrapped, roles[i]); err != nil {
			return out, err
		}
	}
	m.SetTracer(rec)
	out.traced.setupS = stop()
	stop = startClock()
	err = m.RunWith(ctx, runOpts(s)...)
	out.traced.runS = stop()
	tr.record("vm.traced", id, "scenario", start, 0, 0)
	if err != nil {
		return out, err
	}
	out.traced.key = id
	out.traced.finish(s, m, wholeRun)
	if out.traced.digest != out.untraced.digest {
		return out, fmt.Errorf("traced digest %s differs from untraced %s", out.traced.digest, out.untraced.digest)
	}
	g := m.Guests()[0]
	asids := make([]uint32, len(progs))
	for i, t := range g.Tasks() {
		asids[i] = t.Process().ASID()
	}
	type backing struct{ gpa, hpa arch.PhysAddr }
	var host []backing
	g.HostVM().PageTable().ForEachMapped(func(gpa arch.VirtAddr, hpa arch.PhysAddr, _ pagetable.Flags) bool {
		host = append(host, backing{arch.PhysAddr(gpa), hpa})
		return true
	})

	// workload: the same programs stepping over a stub environment, in
	// batches of the machine's size, for as many accesses as each made.
	start = tr.since()
	progs, _, err = programs(s)
	if err != nil {
		return out, err
	}
	buf := make([]workload.Access, min(hc.Quantum, 256))
	var steps uint64
	var stepNS int64
	for i, p := range progs {
		env := &stubEnv{next: 1 << 40}
		if err := p.Setup(env); err != nil {
			return out, err
		}
		bp := workload.AsBatch(p)
		t := time.Now()
		for n := uint64(0); n < rec.perTask[i]; {
			k, done := bp.StepBatch(env, buf)
			n += uint64(k)
			steps += uint64(k)
			if done || k == 0 {
				break
			}
		}
		stepNS += time.Since(t).Nanoseconds()
	}
	tr.record("replay.workload.step", id, "scenario", start, steps, stepNS)
	lt.add("workload.step", float64(stepNS), steps)

	// tlb: a fresh two-level TLB probed with the recorded (asid, vpn)
	// stream, filling on every miss.
	start = tr.since()
	tl := tlb.NewTwoLevel(hc.Walker.TLB)
	t := time.Now()
	for _, w := range rec.acc {
		task, va, _ := unpack(w)
		vpn := va.PageNumber()
		if _, ok := tl.Lookup(asids[task], vpn); !ok {
			tl.Insert(asids[task], vpn, arch.PhysAddr(vpn<<arch.PageShift))
		}
	}
	ns := time.Since(t).Nanoseconds()
	tr.record("replay.tlb.lookup", id, "scenario", start, uint64(len(rec.acc)), ns)
	lt.add("tlb.lookup", float64(ns), uint64(len(rec.acc)))

	// guestos and nested: re-execute the machine loop on a fresh machine
	// of the same configuration, applying the recorded environment calls
	// at their positions in the stream.
	start = tr.since()
	rm, err := vm.NewHost(hc)
	if err != nil {
		return out, err
	}
	rg := rm.Guests()[0]
	k, walker := rg.Kernel(), rg.Walker()
	hier := rm.Hierarchy()
	var procs []*guestos.Process
	var cpus []int
	var walkNS, faultNS, cacheNS float64
	var walks, faults, dataAcc uint64
	// Data accesses are held back and timed in bulk just before the next
	// call that touches the caches (a walk) and at the end. TranslateFast,
	// guest faults and environment calls never touch the caches, so the
	// hierarchy sees exactly execBatch's interleaving of page-table and
	// data lines.
	var pending []uint64
	flush := func() {
		if len(pending) == 0 {
			return
		}
		t := time.Now()
		for _, w := range pending {
			hier.Access(int(w>>taskShift), arch.PhysAddr(w&vaMask))
		}
		cacheNS += float64(time.Since(t).Nanoseconds()) - clock
		dataAcc += uint64(len(pending))
		pending = pending[:0]
	}
	opi, fi := 0, 0
	apply := func(op envOp) error {
		switch op.kind {
		case opSpawn:
			p, err := k.Spawn(op.name, op.bytes)
			if err != nil {
				return err
			}
			procs = append(procs, p)
			cpus = append(cpus, (rg.Index()+len(cpus))%hc.NumCPUs)
		case opMmap:
			va, err := procs[op.task].Mmap(op.bytes)
			if err != nil {
				return err
			}
			if va != op.va {
				return fmt.Errorf("replayed mmap returned %#x, recorded %#x", uint64(va), uint64(op.va))
			}
		case opFree:
			p := procs[op.task]
			if err := p.Free(op.va, op.bytes); err != nil {
				return err
			}
			end := arch.VirtAddr(arch.AlignUp(uint64(op.va)+op.bytes, arch.PageSize))
			walker.InvalidateRange(p.ASID(), op.va.PageBase(), end)
		}
		return nil
	}
	for i, w := range rec.acc {
		for ; opi < len(rec.ops) && rec.ops[opi].at <= uint64(i); opi++ {
			if err := apply(rec.ops[opi]); err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
		}
		task, va, write := unpack(w)
		p, cpu := procs[task], cpus[task]
		asid, gpt := p.ASID(), p.PageTable()
		res, hit := walker.TranslateFast(asid, va, write)
		for attempt := 0; ; attempt++ {
			if !hit {
				flush()
				t := time.Now()
				if attempt == 0 {
					res = walker.TranslateSlow(cpu, asid, gpt, va, write)
				} else {
					res = walker.Translate(cpu, asid, gpt, va, write)
				}
				walkNS += float64(time.Since(t).Nanoseconds()) - clock
				walks++
			}
			if res.Ok {
				pending = append(pending, uint64(cpu)<<taskShift|uint64(res.HPA))
				break
			}
			if !res.GuestFault || attempt >= 3 {
				return out, fmt.Errorf("replay: access %d at %#x does not resolve", i, uint64(va))
			}
			t := time.Now()
			kind, err := p.HandlePageFault(va, write)
			faultNS += float64(time.Since(t).Nanoseconds()) - clock
			faults++
			if err != nil {
				return out, fmt.Errorf("replay: %w", err)
			}
			if fi < len(rec.faults) && rec.faults[fi].seq == uint64(i)+1 {
				if rec.faults[fi].kind == uint8(kind) {
					out.matched++
				}
				fi++
			}
			if kind == guestos.FaultCOW {
				walker.InvalidatePage(asid, va)
			}
			hit = false
		}
	}
	flush()
	out.recorded = max(uint64(len(rec.faults)), faults)
	tr.record("replay.machine", id, "scenario", start, uint64(len(rec.acc)), 0)
	tr.record("replay.nested.walk", id, "replay.machine", start, walks, int64(walkNS))
	tr.record("replay.guestos.fault", id, "replay.machine", start, faults, int64(faultNS))
	tr.record("replay.cache.access", id, "replay.machine", start, dataAcc, int64(cacheNS))
	if err := sameCounters(out.traced.counters, rm.Registry().Snapshot(), "walker.", "tlb.", "cache."); err != nil {
		return out, fmt.Errorf("re-execution: %w", err)
	}
	lt.add("nested.walk", walkNS, walks)
	lt.add("guestos.fault", faultNS, faults)
	lt.add("guestos.fault."+s.Policy.String(), faultNS, faults)
	lt.add("cache.access", cacheNS, dataAcc)

	// nested fast path: TranslateFast over the recorded stream on the
	// re-executed walker.
	start = tr.since()
	t = time.Now()
	for _, w := range rec.acc {
		task, va, write := unpack(w)
		walker.TranslateFast(procs[task].ASID(), va, write)
	}
	ns = time.Since(t).Nanoseconds()
	tr.record("replay.nested.fast", id, "scenario", start, uint64(len(rec.acc)), ns)
	lt.add("nested.fast", float64(ns), uint64(len(rec.acc)))

	// hostos: a fresh host kernel faulting in the guest-physical pages the
	// traced run backed, in first-touch order. The host never frees in
	// these scenarios, so its buddy hands out frames in ascending order
	// and host-physical order is first-touch order.
	sort.Slice(host, func(i, j int) bool { return host[i].hpa < host[j].hpa })
	start = tr.since()
	hk := hostos.NewKernel(hc.HostMemBytes)
	hv, err := hk.CreateVMWithLevels(hc.Guests[0].MemBytes, hc.PTLevels)
	if err != nil {
		return out, err
	}
	t = time.Now()
	for _, b := range host {
		if err := hv.HandleFault(b.gpa); err != nil {
			return out, fmt.Errorf("host replay: %w", err)
		}
	}
	ns = time.Since(t).Nanoseconds()
	tr.record("replay.hostos.fault", id, "scenario", start, uint64(len(host)), ns)
	lt.add("hostos.fault", float64(ns), uint64(len(host)))
	return out, nil
}

// sameCounters reports the first counter under one of the prefixes whose
// value differs between the recorded run and the re-execution.
func sameCounters(recorded, replayed obs.Snapshot, prefixes ...string) error {
	var err error
	recorded.Each(func(name string, v uint64) {
		for _, p := range prefixes {
			if err == nil && strings.HasPrefix(name, p) {
				if got, _ := replayed.Get(name); got != v {
					err = fmt.Errorf("counter %s is %d, recorded %d", name, got, v)
				}
			}
		}
	})
	return err
}

// stubEnv hands out fresh address ranges and ignores frees: the workload
// replay measures access generation alone.
type stubEnv struct{ next arch.VirtAddr }

func (e *stubEnv) Mmap(bytes uint64) (arch.VirtAddr, error) {
	va := e.next
	e.next += arch.VirtAddr(arch.AlignUp(bytes, arch.PageSize))
	return va, nil
}

func (e *stubEnv) Free(arch.VirtAddr, uint64) error { return nil }
