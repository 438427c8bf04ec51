package main

import (
	"fmt"

	"widx/internal/engine"
	"widx/internal/exp"
	"widx/internal/join"
	"widx/internal/sim"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// sampleProbes is the CLI's default -sample: the probes simulated in detail
// per design point. The traced run caps its rebuilt offloads at it too.
const sampleProbes = 20000

// sampleWindows is the CLI's default -sample-windows.
const sampleWindows = 30

// workload is one benchmark workload: an experiment run exactly as
// `experiments -parallel 1 -run <experiment> ...` would run it.
type workload struct {
	name       string
	experiment string
	set        map[string]string
	sweep      []string // -sweep axes, "key=v1,v2,..."
	scale      float64
	sample     int  // -sample; 0 simulates every probe
	sampling   bool // -sampling with the CLI's default window plan
	// setup builds the workload's inputs through their public builders.
	setup func(w *workload, seed uint64) (inputStamp, error)
	// traced lists the structures the traced run rebuilds its offloads
	// from, built into one address space.
	traced func(w *workload, seed uint64) []structures.BuildConfig
	// coRun makes the traced run co-schedule every Widx offload on one
	// shared level (the CMP contention shape) instead of running each solo.
	coRun bool
}

var allWorkloads = []*workload{
	{
		name: "queries_sampled", experiment: "queries", scale: 0.05, sample: 0, sampling: true,
		setup: setupQueries, traced: tracedHashJoin,
	},
	{
		name: "zoo_full", experiment: "zoo", scale: 0.005, sample: sampleProbes,
		setup: setupZoo, traced: tracedZoo,
	},
	{
		name: "cmp_contention", experiment: "cmp", scale: 1.0 / 64, sample: sampleProbes,
		sweep: []string{"stagger=0,1000,10000"},
		setup: setupCMP, traced: tracedCMP, coRun: true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is the simulation configuration a fresh CLI call starts from:
// one worker, an empty warm cache of its own and no warm store.
func (w *workload) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = w.scale
	cfg.SampleProbes = w.sample
	cfg.Parallelism = 1
	if w.sampling {
		cfg.SampleWindows = sampleWindows
	}
	cfg.WarmCache = warmstate.New()
	return cfg
}

// run executes the workload's experiment through the registry.
func (w *workload) run(cfg sim.Config) (*exp.RunOutput, error) {
	e, ok := exp.Lookup(w.experiment)
	if !ok {
		return nil, fmt.Errorf("experiment %q is not registered", w.experiment)
	}
	if len(w.sweep) == 0 {
		return exp.Run(e, cfg, w.set)
	}
	axes := make([]exp.Axis, len(w.sweep))
	for i, s := range w.sweep {
		ax, err := exp.ParseAxis(s)
		if err != nil {
			return nil, err
		}
		axes[i] = ax
	}
	return exp.RunSweep(e, cfg, w.set, axes)
}

// capProbes bounds a probe-stream length by the detailed sample, as the
// simulator does.
func (w *workload) capProbes(n int) int {
	if w.sample > 0 && n > w.sample {
		return w.sample
	}
	return n
}

// inputStamp describes the inputs a setup built.
type inputStamp struct {
	Probes         int
	FootprintBytes uint64
}

// mixSeed derives an independent 64-bit seed for input i from the
// benchmark's workload seed (splitmix64 finalizer).
func mixSeed(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// querySpecs are the engine plans of the twelve simulated queries at the
// workload's scale, reseeded from the workload seed.
func querySpecs(scale float64, seed uint64) []engine.PlanSpec {
	qs := workloads.SimulatedQueries()
	specs := make([]engine.PlanSpec, len(qs))
	for i, q := range qs {
		specs[i] = engine.FromWorkload(q, scale)
		specs[i].Seed = mixSeed(seed, uint64(i))
	}
	return specs
}

// setupQueries runs every simulated query's plan through engine.Run, the
// build the queries experiment starts with.
func setupQueries(w *workload, seed uint64) (inputStamp, error) {
	var st inputStamp
	for _, spec := range querySpecs(w.scale, seed) {
		res, err := engine.Run(spec)
		if err != nil {
			return st, fmt.Errorf("engine.Run %s: %w", spec.Name, err)
		}
		st.Probes += w.capProbes(res.ProbeCount)
		st.FootprintBytes += res.Index.FootprintBytes()
	}
	return st, nil
}

// setupZoo builds every zoo structure through structures.Build.
func setupZoo(w *workload, seed uint64) (inputStamp, error) {
	return buildStructures(vm.New(), tracedZoo(w, seed))
}

// cmpAgents is the agent count of the cmp experiment's default mix
// (4xwidx:4w).
const cmpAgents = 4

// kernelConfigs are the Medium hash-join kernels of the cmp experiment's
// agents at the workload's scale, reseeded from the workload seed.
func kernelConfigs(w *workload, seed uint64) []join.KernelConfig {
	out := make([]join.KernelConfig, cmpAgents)
	for i := range out {
		kc := join.DefaultKernelConfig(join.Medium, w.scale)
		kc.OuterTuples = w.capProbes(4 * join.Medium.Tuples(w.scale))
		kc.Seed = mixSeed(seed, 100+uint64(i))
		out[i] = kc
	}
	return out
}

// setupCMP builds one Medium hash-join kernel per agent through
// join.BuildKernel.
func setupCMP(w *workload, seed uint64) (inputStamp, error) {
	var st inputStamp
	for _, kc := range kernelConfigs(w, seed) {
		k, err := join.BuildKernel(kc)
		if err != nil {
			return st, fmt.Errorf("join.BuildKernel: %w", err)
		}
		st.Probes += len(k.ProbeKeys)
		st.FootprintBytes += k.FootprintBytes()
	}
	return st, nil
}

// zooBuild sizes one structure the way the zoo experiment does at a scale:
// scale*2^21 resident keys (vertices for BFS: an eighth), four probes per
// key capped by the detailed sample.
func zooBuild(w *workload, k structures.Kind, seed uint64, name string) structures.BuildConfig {
	keys := int(w.scale * (1 << 21))
	if keys < 512 {
		keys = 512
	}
	if k == structures.BFS {
		keys /= 8
		if keys < 128 {
			keys = 128
		}
	}
	return structures.BuildConfig{Kind: k, Keys: keys, Probes: w.capProbes(4 * keys), Span: 1, Seed: seed, Name: name}
}

func tracedHashJoin(w *workload, seed uint64) []structures.BuildConfig {
	cfg := zooBuild(w, structures.HashJoin, mixSeed(seed, 0), "bench.hashjoin")
	cfg.Probes = min(cfg.Probes, sampleProbes)
	return []structures.BuildConfig{cfg}
}

func tracedZoo(w *workload, seed uint64) []structures.BuildConfig {
	var out []structures.BuildConfig
	for i, k := range structures.Kinds() {
		out = append(out, zooBuild(w, k, mixSeed(seed, uint64(i)), "bench."+k.String()))
	}
	return out
}

// tracedCMP is one Medium hash-join partition per co-running agent.
func tracedCMP(w *workload, seed uint64) []structures.BuildConfig {
	keys := join.Medium.Tuples(w.scale)
	out := make([]structures.BuildConfig, cmpAgents)
	for i := range out {
		out[i] = structures.BuildConfig{
			Kind: structures.HashJoin, Keys: keys, Probes: w.capProbes(4 * keys),
			Seed: mixSeed(seed, 100+uint64(i)), Name: fmt.Sprintf("bench.agent%d", i),
		}
	}
	return out
}

// buildStructures builds each structure into as.
func buildStructures(as *vm.AddressSpace, cfgs []structures.BuildConfig) (inputStamp, error) {
	var st inputStamp
	for _, cfg := range cfgs {
		inst, err := structures.Build(as, cfg)
		if err != nil {
			return st, fmt.Errorf("structures.Build %s: %w", cfg.Name, err)
		}
		st.Probes += inst.ProbeCount()
		st.FootprintBytes += inst.Geometry().FootprintBytes
	}
	return st, nil
}

// zooReference is the match stream the zoo experiment must report for each
// structure: the software reference of the builds the zoo makes, with its
// fixed seeds (40961 + 101*kind).
func zooReference(w *workload) (map[string]zooMatch, error) {
	out := map[string]zooMatch{}
	for _, k := range structures.Kinds() {
		cfg := zooBuild(w, k, 40961+101*uint64(k), "zoo."+k.String())
		inst, err := structures.Build(vm.New(), cfg)
		if err != nil {
			return nil, fmt.Errorf("structures.Build %s: %w", k, err)
		}
		matches, _ := inst.Reference()
		out[k.String()] = zooMatch{Matches: len(matches), Fingerprint: structures.Fingerprint(matches)}
	}
	return out, nil
}
