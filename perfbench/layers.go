package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"widx/internal/cores"
	"widx/internal/engine"
	"widx/internal/exp"
	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/sampling"
	"widx/internal/sim"
	"widx/internal/structures"
	"widx/internal/system"
	"widx/internal/vm"
	"widx/internal/widx"
)

// layerPasses is how many fresh-state passes each replay timing takes; the
// median is reported.
const layerPasses = 3

// layerRun is the traced per-layer measurement of one workload: spans
// around every call into a layer's public functions, kept in memory and
// written out at the end.
type layerRun struct {
	w        *workload
	seed     uint64
	rec      *recorder
	metrics  map[string]metric
	checks   int
	failures []string
}

func (l *layerRun) set(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

// check records one correctness check.
func (l *layerRun) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// runTraced measures every per-layer metric on the workload's inputs.
func runTraced(w *workload, seed uint64, root string) (result, error) {
	l := &layerRun{w: w, seed: seed, rec: newRecorder(), metrics: map[string]metric{}}
	if err := l.expLayer(); err != nil {
		return result{}, err
	}
	streams, err := l.builders()
	if err != nil {
		return result{}, err
	}
	as := vm.New()
	var insts []structures.Instance
	buildTime, err := l.rec.timed("structures.Build", func() error {
		for _, cfg := range w.traced(w, seed) {
			inst, err := structures.Build(as, cfg)
			if err != nil {
				return fmt.Errorf("structures.Build %s: %w", cfg.Name, err)
			}
			insts = append(insts, inst)
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	l.set("structures.build_s", buildTime.Seconds(), "s")
	var footprint uint64
	for _, inst := range insts {
		footprint += inst.Geometry().FootprintBytes
		if w.experiment != "queries" {
			streams = append(streams, inst.ProbeCount())
		}
	}
	l.set("structures.footprint_bytes", float64(footprint), "bytes")
	l.samplingShare(streams)

	if err := l.systemLayer(as, insts); err != nil {
		return result{}, err
	}
	l.memLayer(as, insts)
	l.samplingFF(insts)

	printStamp(stampEnv(root), inputStamp{Probes: sum(streams), FootprintBytes: footprint})
	printLayerMetrics(l.metrics)
	for _, f := range l.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := l.rec.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %s\n", path)
	return result{Correct: len(l.failures) == 0, Attempted: l.checks, Failed: len(l.failures), Metrics: l.metrics}, nil
}

// expLayer runs the workload's experiment once, traced, with a warm cache
// the benchmark injects and reads back.
func (l *layerRun) expLayer() error {
	cfg := l.w.config()
	var out *exp.RunOutput
	d, err := l.rec.timed("exp.Run", func() error {
		var err error
		out, err = l.w.run(cfg)
		return err
	})
	l.set("exp.run_s", d.Seconds(), "s")
	hits, misses := cfg.WarmCache.Stats()
	l.set("warmstate.hits", float64(hits), "count")
	l.set("warmstate.misses", float64(misses), "count")
	l.set("warmstate.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	var it iteration
	if err == nil {
		var m *exp.Manifest
		if m, err = out.Manifest(); err == nil {
			var data []byte
			if _, data, err = reportDigest(m); err == nil {
				err = it.extract(data)
			}
		}
	}
	l.check(err == nil, "exp.Run: %v", err)
	if l.w.sampling {
		l.check(it.Sampled && it.FPVerified, "sampled run did not verify its functional fingerprint")
	}
	if l.w.experiment == "zoo" {
		ref, err := zooReference(l.w)
		if err != nil {
			return err
		}
		why := checkZoo(it.Zoo, ref)
		l.check(why == "", "%s", why)
	}
	l.set("sim.cycles", float64(it.SimCycles), "cycles")
	return nil
}

// builders times the three public input builders on the workload's scale
// and seed: engine.Run over the simulated queries, join.BuildKernel over the
// cmp agents' kernels. It returns the queries' probe-stream lengths.
func (l *layerRun) builders() ([]int, error) {
	var streams []int
	var before, after runtime.MemStats
	specs := querySpecs(l.w.scale, l.seed)
	runtime.ReadMemStats(&before)
	for _, spec := range specs {
		var res *engine.Result
		if _, err := l.rec.timed("engine.Run", func() error {
			var err error
			res, err = engine.Run(spec)
			return err
		}); err != nil {
			return nil, fmt.Errorf("engine.Run %s: %w", spec.Name, err)
		}
		if l.w.experiment == "queries" {
			streams = append(streams, l.w.capProbes(res.ProbeCount))
		}
	}
	runtime.ReadMemStats(&after)
	l.set("engine.run_s", l.rec.total("engine.Run").Seconds(), "s")
	l.set("engine.allocs_per_run", float64(after.Mallocs-before.Mallocs)/float64(len(specs)), "count")
	for _, kc := range kernelConfigs(l.w, l.seed) {
		if _, err := l.rec.timed("join.BuildKernel", func() error {
			_, err := join.BuildKernel(kc)
			return err
		}); err != nil {
			return nil, fmt.Errorf("join.BuildKernel: %w", err)
		}
	}
	l.set("join.build_kernel_s", l.rec.total("join.BuildKernel").Seconds(), "s")
	return streams, nil
}

// samplingShare is the share of the workload's probes its sampling plan
// simulates in detail (1 for a full-detail workload).
func (l *layerRun) samplingShare(streams []int) {
	var detailed, total uint64
	for _, n := range streams {
		plan := sampling.Full(uint64(n))
		if l.w.sampling {
			plan = defaultPlan(n)
		}
		detailed += plan.DetailedProbes()
		total += uint64(n)
	}
	l.set("sampling.detailed_share", ratio(float64(detailed), float64(total)), "ratio")
}

// offload is one Widx offload rebuilt from public pieces.
type offload struct {
	inst       structures.Instance
	resultBase uint64
	matches    []uint64
}

// startWidx attaches a four-walker accelerator for o to the shared level
// and starts the offload as a system agent.
func startWidx(sl *mem.SharedLevel, as *vm.AddressSpace, o offload, name string) (*widx.OffloadAgent, error) {
	progs, err := o.inst.Programs(o.resultBase, structures.ProgramOptions{})
	if err != nil {
		return nil, err
	}
	hier := sl.NewAgent(sl.Topology().Agent(name))
	acc, err := widx.New(widx.DefaultConfig(), hier, as, progs.Dispatcher, progs.Walker, progs.Producer)
	if err != nil {
		return nil, err
	}
	return acc.StartOffload(widx.OffloadRequest{KeyBase: o.inst.ProbeKeyBase(), KeyCount: uint64(o.inst.ProbeCount())})
}

// widxGroups runs the offloads under system.Run, grouped as the workload
// runs them: all on one shared level for a co-run, otherwise each solo on
// its own. run executes each group's agents; it may wrap them.
func widxGroups(as *vm.AddressSpace, offs []offload, coRun bool, run func(agents []system.Agent) error) ([]*widx.OffloadResult, error) {
	groups := [][]offload{offs}
	if !coRun {
		groups = nil
		for _, o := range offs {
			groups = append(groups, []offload{o})
		}
	}
	var results []*widx.OffloadResult
	for _, g := range groups {
		sl := mem.NewSharedLevel(mem.DefaultConfig().Topology())
		agents := make([]*widx.OffloadAgent, len(g))
		sys := make([]system.Agent, len(g))
		for i, o := range g {
			a, err := startWidx(sl, as, o, fmt.Sprintf("widx%d", i))
			if err != nil {
				return nil, err
			}
			agents[i], sys[i] = a, a
		}
		if err := run(sys); err != nil {
			return nil, err
		}
		for _, a := range agents {
			r, err := a.Result()
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// systemLayer rebuilds the workload's offloads and runs them under
// system.Run, untraced and then wrapped in tracing agents, and replays the
// reference traces on an out-of-order core the same way.
func (l *layerRun) systemLayer(as *vm.AddressSpace, insts []structures.Instance) error {
	offs := make([]offload, len(insts))
	for i, inst := range insts {
		matches, _ := inst.Reference()
		offs[i] = offload{inst: inst, matches: matches,
			resultBase: as.AllocAligned(fmt.Sprintf("bench.results%d", i), uint64(len(matches))*8+64)}
	}

	var untraced time.Duration
	plain, err := widxGroups(as.Clone(), offs, l.w.coRun, func(agents []system.Agent) error {
		t := time.Now()
		err := system.Run(agents...)
		untraced += time.Since(t)
		return err
	})
	if err != nil {
		return fmt.Errorf("untraced offload: %w", err)
	}

	var widxRun, widxHost time.Duration
	var widxGrants, settles, grants uint64
	var selfTime time.Duration
	traced, err := widxGroups(as.Clone(), offs, l.w.coRun, func(agents []system.Agent) error {
		tas := make([]*tracingAgent, len(agents))
		for i, a := range agents {
			tas[i] = &tracingAgent{Agent: a}
			agents[i] = tas[i]
		}
		id := l.rec.begin("system.Run widx")
		err := system.Run(agents...)
		for _, ta := range tas {
			l.rec.aggregate("widx.Settle", ta.settle)
			l.rec.aggregate("widx.GrantMem", ta.grant)
			widxGrants += ta.grant.calls
			widxHost += ta.settle.dur + ta.grant.dur
			settles += ta.settle.calls
			grants += ta.grant.calls
		}
		widxRun += l.rec.end(id)
		selfTime += l.rec.selfTime(id)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced offload: %w", err)
	}
	var tuples uint64
	for i := range traced {
		// OffloadResult holds only numbers and slices; encoding cannot fail.
		a, _ := json.Marshal(plain[i])
		b, _ := json.Marshal(traced[i])
		l.check(string(a) == string(b), "traced offload %d result differs from the untraced run", i)
		l.check(structures.Fingerprint(traced[i].Matches) == structures.Fingerprint(offs[i].matches),
			"offload %d match stream differs from the software reference", i)
		tuples += traced[i].Tuples
	}

	var coreRun time.Duration
	var probes uint64
	for _, inst := range insts {
		_, traces := inst.Reference()
		sl := mem.NewSharedLevel(mem.DefaultConfig().Topology())
		core, err := cores.New(cores.OoOConfig(), sl.NewAgent(sl.Topology().Agent("host")))
		if err != nil {
			return err
		}
		pe, err := core.NewProbeEngine(traces, 0)
		if err != nil {
			return err
		}
		ta := &tracingAgent{Agent: pe}
		id := l.rec.begin("system.Run core")
		err = system.Run(ta)
		l.rec.aggregate("cores.Settle", ta.settle)
		l.rec.aggregate("cores.GrantMem", ta.grant)
		coreRun += l.rec.end(id)
		selfTime += l.rec.selfTime(id)
		if err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
		settles += ta.settle.calls
		grants += ta.grant.calls
		probes += uint64(len(traces))
	}

	l.set("exp.trace_overhead_pct", 100*ratio((widxRun-untraced).Seconds(), untraced.Seconds()), "%")
	l.set("system.run_s", (widxRun + coreRun).Seconds(), "s")
	l.set("system.self_s", selfTime.Seconds(), "s")
	l.set("system.grants", float64(grants), "count")
	l.set("system.settles", float64(settles), "count")
	l.set("widx.settle_ns_per_grant", ratio(float64(widxHost.Nanoseconds()), float64(widxGrants)), "ns")
	l.set("widx.host_ns_per_tuple", ratio(float64(widxRun.Nanoseconds()), float64(tuples)), "ns")
	l.set("cores.host_ns_per_probe", ratio(float64(coreRun.Nanoseconds()), float64(probes)), "ns")
	return nil
}

// probeAddrs lists one probe's dependent loads in traversal order.
func probeAddrs(tr *hashidx.ProbeTrace) []uint64 {
	var out []uint64
	add := func(a uint64) {
		if a != 0 {
			out = append(out, a)
		}
	}
	add(tr.KeyAddr)
	add(tr.BucketAddr)
	for _, s := range tr.Steps {
		add(s.NodeAddr)
		add(s.KeyFetchAddr)
	}
	return out
}

// chainsPerAgent is how many probes each replaying agent keeps in flight,
// the walker count of the default accelerator.
const chainsPerAgent = 4

// replay issues the probes' loads through the hierarchies in global cycle
// order. Agent a replays parts[a], chainsPerAgent probes at a time; a
// probe's next load issues when its previous one completes, and a chain
// starts its next probe when the last one ends.
func replay(hiers []*mem.Hierarchy, parts [][][]uint64) {
	type chain struct {
		agent, pos int
		probe      []uint64
		cycle      uint64
	}
	next := make([]int, len(parts))
	var chains []*chain
	for a := range hiers {
		for c := 0; c < chainsPerAgent; c++ {
			chains = append(chains, &chain{agent: a})
		}
	}
	for {
		var cur *chain
		for _, c := range chains {
			for c.pos == len(c.probe) && next[c.agent] < len(parts[c.agent]) {
				c.probe, c.pos = parts[c.agent][next[c.agent]], 0
				next[c.agent]++
			}
			if c.pos < len(c.probe) && (cur == nil || c.cycle < cur.cycle) {
				cur = c
			}
		}
		if cur == nil {
			return
		}
		r := hiers[cur.agent].Access(cur.probe[cur.pos], cur.cycle, mem.Load)
		cur.cycle = r.CompleteCycle
		cur.pos++
	}
}

// memLayer replays the reference traces through the memory system's and
// the address space's public entry points: each structure's first probes,
// sampleProbes in all.
func (l *layerRun) memLayer(as *vm.AddressSpace, insts []structures.Instance) {
	var perInst [][][]uint64
	var probes [][]uint64
	var flat []uint64
	per := (sampleProbes + len(insts) - 1) / len(insts)
	for _, inst := range insts {
		_, traces := inst.Reference()
		var p [][]uint64
		for i := range traces[:min(per, len(traces))] {
			addrs := probeAddrs(&traces[i])
			p = append(p, addrs)
			flat = append(flat, addrs...)
		}
		perInst = append(perInst, p)
		probes = append(probes, p...)
	}
	cfg := mem.DefaultConfig()
	n := float64(len(flat))

	// One agent: timing, allocations and the miss ratios.
	var stats mem.Stats
	var tlb *mem.TLB
	var mallocs uint64
	access := l.passes("mem.Hierarchy.Access", func() {
		h := mem.NewHierarchy(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay([]*mem.Hierarchy{h}, [][][]uint64{probes})
		runtime.ReadMemStats(&after)
		stats, tlb, mallocs = h.Stats(), h.TLB(), after.Mallocs-before.Mallocs
	})
	l.set("mem.access_ns", access/n, "ns")
	l.set("mem.access_allocs", float64(mallocs)/n, "count")
	l.set("mem.l1_miss_ratio", stats.L1MissRatio(), "ratio")
	l.set("mem.llc_miss_ratio", stats.LLCMissRatio(), "ratio")
	l.set("mem.tlb_miss_ratio", tlb.MissRatio(), "ratio")
	l.set("mem.mshr_mean_occupancy", stats.MeanMSHROccupancy(), "entries")

	// Four agents on one shared level: a co-run's partitions, or else the
	// probes dealt round-robin. The stall cycles come from here, where the
	// fill buffers and memory controllers are contended.
	parts := perInst
	if !l.w.coRun || len(parts) != cmpAgents {
		parts = make([][][]uint64, cmpAgents)
		for i, p := range probes {
			parts[i%cmpAgents] = append(parts[i%cmpAgents], p)
		}
	}
	var shared mem.Stats
	sharedNs := l.passes("mem.SharedLevel.Access", func() {
		sl := mem.NewSharedLevel(cfg.Topology())
		hiers := make([]*mem.Hierarchy, len(parts))
		for i := range hiers {
			hiers[i] = sl.NewAgent(sl.Topology().Agent(fmt.Sprintf("agent%d", i)))
		}
		replay(hiers, parts)
		shared = sl.SystemStats()
	})
	l.set("mem.shared_access_ns", sharedNs/n, "ns")
	l.set("mem.port_stall_cycles", float64(shared.PortStallCycles), "cycles")
	l.set("mem.mshr_stall_cycles", float64(shared.MSHRStallCycles), "cycles")
	l.set("mem.fill_stall_cycles", float64(shared.FillStallCycles), "cycles")

	l.set("mem.warmblock_ns", l.passes("mem.Hierarchy.WarmBlock", func() {
		h := mem.NewHierarchy(cfg)
		for _, a := range flat {
			h.WarmBlock(a)
		}
	})/n, "ns")

	var llc *mem.Cache
	l.set("mem.cache_insert_ns", l.passes("mem.Cache.Insert", func() {
		llc = mem.NewCache("llc", cfg.LLCSizeBytes, cfg.LLCAssoc, cfg.L1BlockBytes)
		for _, a := range flat {
			llc.Insert(a)
		}
	})/n, "ns")
	l.set("mem.cache_lookup_ns", l.passes("mem.Cache.Lookup", func() {
		for _, a := range flat {
			llc.Lookup(a)
		}
	})/n, "ns")

	l.set("mem.tlb_translate_ns", l.passes("mem.TLB.Translate", func() {
		t := mem.NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.TLBWalkCyc, cfg.TLBInFlight)
		var cycle uint64
		for _, a := range flat {
			ready, _ := t.Translate(a, cycle)
			cycle = max(cycle, ready) + 1
		}
	})/n, "ns")

	var sink uint64
	l.set("vm.read64_ns", l.passes("vm.AddressSpace.Read64", func() {
		for _, a := range flat {
			sink ^= as.Read64(a)
		}
	})/n, "ns")
	_ = sink
}

// passes runs f layerPasses times, each in its own span, and returns the
// median pass time in nanoseconds.
func (l *layerRun) passes(name string, f func()) float64 {
	var ns []float64
	for p := 0; p < layerPasses; p++ {
		d, _ := l.rec.timed(name, func() error {
			f()
			return nil
		})
		ns = append(ns, float64(d.Nanoseconds()))
	}
	return median(ns)
}

// samplingFF drives the CLI's default sampling plan over each traced
// structure's probe stream and times the fast-forward spans, which warm a
// hierarchy from the reference traces as the sampled simulator does.
func (l *layerRun) samplingFF(insts []structures.Instance) {
	var ffDur time.Duration
	var ffProbes uint64
	for _, inst := range insts {
		_, traces := inst.Reference()
		h := mem.NewHierarchy(mem.DefaultConfig())
		_ = defaultPlan(len(traces)).Run(func(sp sampling.Span) error {
			d, _ := l.rec.timed("sampling.FastForward", func() error {
				warmTraces(h, traces[sp.Start:sp.End])
				return nil
			})
			ffDur += d
			ffProbes += sp.Len()
			return nil
		}, func(sampling.Span) error { return nil })
	}
	l.set("sampling.ff_ns_per_probe", ratio(float64(ffDur.Nanoseconds()), float64(ffProbes)), "ns")
}

// defaultPlan is the sampling plan the CLI's -sampling defaults give a
// stream of n probes.
func defaultPlan(n int) sampling.Plan {
	cfg := sim.DefaultConfig()
	return sampling.NewPlan(uint64(n), sampleWindows, cfg.SampleWarmup, cfg.SamplePeriod)
}

// warmTraces installs every block the traces touch, as the sampled
// simulator's fast-forward does.
func warmTraces(h *mem.Hierarchy, traces []hashidx.ProbeTrace) {
	for i := range traces {
		t := &traces[i]
		h.WarmBlock(t.KeyAddr)
		h.WarmBlock(t.BucketAddr)
		for _, s := range t.Steps {
			h.WarmBlock(s.NodeAddr)
			if s.KeyFetchAddr != 0 {
				h.WarmBlock(s.KeyFetchAddr)
			}
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
