// Warm-state reuse across design points. A sweep grid varies mostly
// timing-side knobs (queue depths, MSHR budgets, fill buffers, stagger),
// yet the historical runners rebuilt the workload image and re-warmed the
// hierarchy for every grid point. This file threads Config.WarmCache
// through the experiment entry points: the expensive phase-independent
// artifacts — built kernels and engine runs (address-space images, hash
// tables, probe traces) and warmed cache/TLB content — are memoized under
// content-addressed keys (internal/warmstate) and handed out as private
// copy-on-write clones or geometry-checked snapshot restores, so a
// warm-invariant sweep pays for each distinct build and warm-up once.
//
// Correctness contract: with the cache enabled, every experiment produces
// byte-identical reports to a cache-off run at any parallelism. Three
// mechanisms carry that:
//
//   - Cache keys name every warm-affecting input (workload spec and size,
//     scale, sample-derived stream lengths, warm-relevant topology
//     geometry, warming policy) through the Fingerprint builder. Timing
//     knobs are deliberately absent; warm content is independent of them
//     (internal/mem/state.go), which is the property being exploited.
//   - Consumers never touch a cached master: address spaces are handed
//     out as copy-on-write clones (taken under the artifact's mutex —
//     Clone mutates the parent's sharing bookkeeping), warmed hierarchies
//     as snapshot restores into freshly built levels.
//   - Verify mode (Cache.SetVerify) rebuilds on every hit and compares
//     content hashes, turning a key that omits a warm-affecting knob into
//     a hard error instead of silently shared state.
package sim

import (
	"fmt"
	"sync"

	"widx/internal/engine"
	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// warmKeyHook, when non-nil, rewrites every cache key before use. It
// exists only for the misclassification drill in tests: stripping a field
// from the keys simulates a warm-affecting parameter that leaked out of
// the fingerprint, which verify mode must catch.
var warmKeyHook func(string) string

// warmKey renders a fingerprint, applying the test hook.
func warmKey(f *warmstate.Fingerprint) string {
	k := f.Key()
	if warmKeyHook != nil {
		k = warmKeyHook(k)
	}
	return k
}

// warmStateCached memoizes a warm-state snapshot through the two cache
// tiers: the in-memory Cache (per-process, verify-capable) in front of the
// optional DiskStore (Config.WarmStore, cross-process). A disk hit decodes
// the persisted payload instead of rebuilding; an undecodable payload — a
// stale codec revision, a torn write — counts as a miss and is rebuilt and
// overwritten. The in-memory tier still content-hash-verifies whatever the
// loader produced, so a corrupted-but-decodable payload surfaces in verify
// mode exactly like a key collision.
func (c Config) warmStateCached(key string, build func() (*mem.WarmState, error)) (*mem.WarmState, error) {
	load := build
	if c.WarmStore != nil {
		load = func() (*mem.WarmState, error) {
			payload, ok, err := c.WarmStore.Get(key)
			if err != nil {
				return nil, err
			}
			if ok {
				if st, derr := mem.DecodeWarmState(payload); derr == nil {
					return st, nil
				}
			}
			st, err := build()
			if err != nil {
				return nil, err
			}
			if err := c.WarmStore.Put(key, st.EncodeBinary()); err != nil {
				return nil, err
			}
			return st, nil
		}
	}
	if c.WarmCache == nil {
		return load()
	}
	return warmstate.Get(c.WarmCache, key, load, (*mem.WarmState).ContentHash)
}

// kernelArtifact is one memoized hash-join kernel build: the master
// address-space image (never written after build), the index, and the
// probe traces, generated once inside the build so consumers never read
// the master concurrently.
type kernelArtifact struct {
	mu     sync.Mutex
	kernel *join.Kernel
	traces []hashidx.ProbeTrace
}

// phase hands out one consumer's view of the artifact: an indexPhase on
// the given image — the master itself for an uncached build, otherwise a
// private copy-on-write clone of it.
func (a *kernelArtifact) phase(as *vm.AddressSpace, warmKey string) *indexPhase {
	k := a.kernel
	return hashJoinPhase(as, k.Index, k.ProbeKeyBase, len(k.ProbeKeys), a.traces, warmKey)
}

// kernelPhase builds (or fetches from the warm cache) the kernel workload
// for one size class. The key names every input BuildKernel consumes; the
// probe-sample knob enters through the derived OuterTuples stream length,
// so two configs that produce the same stream share the build. Cache off
// reproduces the historical inline path exactly, master image included.
func (c Config) kernelPhase(size join.SizeClass) (*indexPhase, error) {
	kcfg := join.DefaultKernelConfig(size, c.Scale)
	// The probe stream only needs to cover the detailed sample.
	kcfg.OuterTuples = c.sampleCount(4 * size.Tuples(c.Scale))
	build := func() (*kernelArtifact, error) {
		kernel, err := join.BuildKernel(kcfg)
		if err != nil {
			return nil, err
		}
		return &kernelArtifact{
			kernel: kernel,
			traces: kernel.Traces(c.sampleCount(len(kernel.ProbeKeys))),
		}, nil
	}
	if c.WarmCache == nil {
		art, err := build()
		if err != nil {
			return nil, err
		}
		return art.phase(art.kernel.AS, ""), nil
	}
	key := warmKey(warmstate.NewFingerprint("kernel").
		Field("size", kcfg.Size).
		Field("scale", kcfg.Scale).
		Field("outer", kcfg.OuterTuples).
		Field("npb", kcfg.NodesPerBucket).
		Field("hash", kcfg.Hash).
		Field("seed", kcfg.Seed))
	art, err := warmstate.Get(c.WarmCache, key, build,
		func(a *kernelArtifact) uint64 { return a.kernel.AS.ContentHash() })
	if err != nil {
		return nil, err
	}
	// Clone under the artifact's lock: vm.AddressSpace.Clone mutates the
	// parent's sharing bookkeeping.
	art.mu.Lock()
	as := art.kernel.AS.Clone()
	art.mu.Unlock()
	return art.phase(as, key), nil
}

// enginePhase is the index phase of an executed query: its hash join's
// probe stream over the engine-built index.
func enginePhase(res *engine.Result, warmKey string) *indexPhase {
	return hashJoinPhase(res.AS, res.Index, res.ProbeKeyBase, res.ProbeCount, res.Traces, warmKey)
}

// engineArtifact is one memoized query-engine run: the full engine result
// with its master address-space image.
type engineArtifact struct {
	mu  sync.Mutex
	res *engine.Result
}

// result hands out the artifact. With cloneAS the returned result carries
// a private copy-on-write clone of the image (for consumers that replay
// the index phase and allocate result regions); without it the shared
// result is returned directly and the caller must treat it — AS included —
// as read-only.
func (a *engineArtifact) result(cloneAS bool) *engine.Result {
	if !cloneAS {
		return a.res
	}
	a.mu.Lock()
	as := a.res.AS.Clone()
	a.mu.Unlock()
	cp := *a.res
	cp.AS = as
	return &cp
}

// engineRun executes (or fetches from the warm cache) one query through
// the engine. The key is the rendered PlanSpec — value-typed, fully
// derived from the query spec and scale, and the complete input set of
// engine.Run.
func (c Config) engineRun(q workloads.QuerySpec, cloneAS bool) (*engine.Result, error) {
	res, _, err := c.engineRunKeyed(q, cloneAS)
	return res, err
}

// engineRunKeyed is engineRun returning the artifact's cache key alongside
// the result ("" when caching is off), for phase-level warm-state
// checkpoints to chain on.
func (c Config) engineRunKeyed(q workloads.QuerySpec, cloneAS bool) (*engine.Result, string, error) {
	spec := engine.FromWorkload(q, c.Scale)
	if c.WarmCache == nil {
		res, err := engine.Run(spec)
		return res, "", err
	}
	key := warmKey(warmstate.NewFingerprint("engine").
		Field("spec", fmt.Sprintf("%+v", spec)))
	art, err := warmstate.Get(c.WarmCache, key, func() (*engineArtifact, error) {
		res, err := engine.Run(spec)
		if err != nil {
			return nil, err
		}
		return &engineArtifact{res: res}, nil
	}, func(a *engineArtifact) uint64 { return a.res.AS.ContentHash() })
	if err != nil {
		return nil, "", err
	}
	return art.result(cloneAS), key, nil
}

// cmpWorkloadArtifact is one memoized partitioned CMP workload: the
// master image plus the per-agent partitions (tables, key columns,
// program bundles, traces), all read-only after build.
type cmpWorkloadArtifact struct {
	mu        sync.Mutex
	as        *vm.AddressSpace
	workloads []cmpAgentWorkload
}

// cmpWorkload builds (or fetches) the partitioned workload for one CMP
// run and returns the address space the run should use, the per-agent
// partitions, and the workload's cache key ("" when caching is off) for
// the warm-state keys to chain on. Each RunCMP invocation receives one
// private clone — solo runs and the co-run share it sequentially, exactly
// like the historical single-image path.
func (c Config) cmpWorkload(size join.SizeClass, specs []CMPAgentSpec, structure structures.Kind) (*vm.AddressSpace, []cmpAgentWorkload, string, error) {
	if c.WarmCache == nil {
		as, ws, err := c.buildCMPWorkload(size, specs, structure)
		return as, ws, "", err
	}
	// The derived stream lengths plus the structure and the spec strings
	// (which name the partition regions and select bundle vs. traces per
	// agent) fully determine the image; scale and sample enter through the
	// lengths.
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.String()
	}
	f := warmstate.NewFingerprint("cmpwork").
		Field("structure", structure).
		Field("tuples", size.Tuples(c.Scale)).
		Field("peragent", c.sampleCount(4*size.Tuples(c.Scale)))
	for i, n := range names {
		f.Field(fmt.Sprintf("agent%d", i), n)
	}
	key := warmKey(f)
	art, err := warmstate.Get(c.WarmCache, key, func() (*cmpWorkloadArtifact, error) {
		as, ws, err := c.buildCMPWorkload(size, specs, structure)
		if err != nil {
			return nil, err
		}
		return &cmpWorkloadArtifact{as: as, workloads: ws}, nil
	}, func(a *cmpWorkloadArtifact) uint64 { return a.as.ContentHash() })
	if err != nil {
		return nil, nil, "", err
	}
	art.mu.Lock()
	clone := art.as.Clone()
	art.mu.Unlock()
	return clone, art.workloads, key, nil
}

// warmSpecField renders the warm-affecting slice of an agent spec: the
// geometry that decides where warmed blocks and pages land. Timing knobs
// (MSHRs, ports, latencies) are deliberately absent — warm content is
// independent of them, so a timing sweep shares one snapshot.
func warmSpecField(spec mem.AgentSpec) string {
	return fmt.Sprintf("l1=%d/%d,tlb=%d,page=%d,ways=%d",
		spec.L1SizeBytes, spec.L1Assoc, spec.TLBEntries, spec.PageBytes, spec.LLCWays)
}

// warmSharedField renders the warm-affecting slice of the shared level:
// LLC geometry and the block size warming strides by. FillBuffers and
// latencies are timing-side and excluded.
func (c Config) warmSharedField() string {
	return fmt.Sprintf("llc=%d/%d,block=%d", c.Mem.LLCSizeBytes, c.Mem.LLCAssoc, c.Mem.L1BlockBytes)
}

// warmCMPSolo warms one agent's partition into its uncontended hierarchy,
// through the warm cache when enabled: the snapshot is captured once from
// a throwaway machine of identical warm-relevant geometry and restored
// into every consumer's level. The throwaway keeps the build closure
// self-contained, so verify-mode rebuilds replay the warm-up from scratch
// rather than re-capturing a level that has since executed.
func (c Config) warmCMPSolo(hier *mem.Hierarchy, workloadKey string, w *cmpAgentWorkload, agentIdx int) error {
	if c.WarmCache == nil || workloadKey == "" {
		warmPartition(hier, w)
		return nil
	}
	spec := hier.Spec()
	key := warmKey(warmstate.NewFingerprint("cmpwarmsolo").
		Field("workload", workloadKey).
		Field("agent", agentIdx).
		Field("shared", c.warmSharedField()).
		Field("spec", warmSpecField(spec)))
	st, err := c.warmStateCached(key, func() (*mem.WarmState, error) {
		tsl := c.newSharedLevel()
		th := tsl.NewAgent(spec)
		warmPartition(th, w)
		return tsl.CaptureWarmState(), nil
	})
	if err != nil {
		return err
	}
	hier.Shared().RestoreWarmState(st)
	return nil
}

// warmCMPCoRun warms every co-running agent's partition into the one
// shared level, through the warm cache when enabled. The key chains on
// the workload key and names the warming policy plus every agent's
// warm-relevant geometry in attachment order, because the interleaved
// policy's eviction pattern depends on all of them together.
func (c Config) warmCMPCoRun(sl *mem.SharedLevel, hiers []*mem.Hierarchy, workloadKey string, ws []cmpAgentWorkload, interleaved bool) error {
	warm := func(hs []*mem.Hierarchy) {
		if interleaved {
			warmPartitionsInterleaved(hs, ws)
		} else {
			for i := range hs {
				warmPartition(hs[i], &ws[i])
			}
		}
	}
	if c.WarmCache == nil || workloadKey == "" {
		warm(hiers)
		return nil
	}
	specs := make([]mem.AgentSpec, len(hiers))
	f := warmstate.NewFingerprint("cmpwarm").
		Field("workload", workloadKey).
		Field("interleaved", interleaved).
		Field("shared", c.warmSharedField())
	for i, h := range hiers {
		specs[i] = h.Spec()
		f.Field(fmt.Sprintf("agent%d", i), warmSpecField(specs[i]))
	}
	key := warmKey(f)
	st, err := c.warmStateCached(key, func() (*mem.WarmState, error) {
		tsl := c.newSharedLevel()
		ths := make([]*mem.Hierarchy, len(specs))
		for i := range specs {
			ths[i] = tsl.NewAgent(specs[i])
		}
		warm(ths)
		return tsl.CaptureWarmState(), nil
	})
	if err != nil {
		return err
	}
	sl.RestoreWarmState(st)
	return nil
}
