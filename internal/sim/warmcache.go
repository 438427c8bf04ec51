// Warm-state reuse across design points. A sweep grid varies mostly
// timing-side knobs (queue depths, MSHR budgets, fill buffers, stagger),
// yet the historical runners rebuilt the workload image and re-warmed the
// hierarchy for every grid point. This file threads Config.WarmCache
// through the experiment entry points: the expensive phase-independent
// artifacts — built kernel, engine, zoo and CMP workloads (address-space
// images with their structures.Instance) and warmed cache/TLB content —
// are memoized under content-addressed keys (internal/warmstate) and
// handed out as private copy-on-write clones or geometry-checked snapshot
// restores, so a warm-invariant sweep pays for each distinct build and
// warm-up once.
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

// masterImage is a memoized master address-space image, never written
// after build. Consumers receive copy-on-write clones, taken under the lock
// because vm.AddressSpace.Clone mutates the parent's sharing bookkeeping.
type masterImage struct {
	mu sync.Mutex
	as *vm.AddressSpace
}

// clone returns a private copy-on-write clone of the image.
func (m *masterImage) clone() *vm.AddressSpace {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.as.Clone()
}

// workloadArtifact is one memoized probe workload: the master image and the
// Instance describing its probe stream, built together inside the build
// closure so no consumer reads the master while another clones it. Engine
// builds also keep the engine result for its operator measurements.
type workloadArtifact struct {
	masterImage
	inst structures.Instance
	eng  *engine.Result
}

// workload builds a probe workload, or fetches it from the warm cache under
// the fingerprint's key, and returns it with that key ("" when caching is
// off). The fingerprint must name every input the build consumes.
func (c Config) workload(f *warmstate.Fingerprint, build func() (*workloadArtifact, error)) (*workloadArtifact, string, error) {
	if c.WarmCache == nil {
		art, err := build()
		return art, "", err
	}
	key := warmKey(f)
	art, err := warmstate.Get(c.WarmCache, key, build,
		func(a *workloadArtifact) uint64 { return a.as.ContentHash() })
	return art, key, err
}

// phase hands out one consumer's indexPhase on the artifact fetched under
// key: on a private clone of the image, or on the master itself for an
// uncached build (key == ""), which no other consumer shares.
func (a *workloadArtifact) phase(key string, prog structures.ProgramOptions) *indexPhase {
	as := a.as
	if key != "" {
		as = a.clone()
	}
	return &indexPhase{as: as, inst: a.inst, prog: prog, warmKey: key}
}

// kernelPhase builds (or fetches from the warm cache) the kernel workload
// for one size class. The key names every input BuildKernel consumes; the
// probe-sample knob enters through the derived OuterTuples stream length,
// so two configs that produce the same stream share the build.
func (c Config) kernelPhase(size join.SizeClass) (*indexPhase, error) {
	kcfg := join.DefaultKernelConfig(size, c.Scale)
	// The probe stream only needs to cover the detailed sample.
	kcfg.OuterTuples = c.sampleCount(4 * size.Tuples(c.Scale))
	art, key, err := c.workload(warmstate.NewFingerprint("kernel").
		Field("size", kcfg.Size).
		Field("scale", kcfg.Scale).
		Field("outer", kcfg.OuterTuples).
		Field("npb", kcfg.NodesPerBucket).
		Field("hash", kcfg.Hash).
		Field("seed", kcfg.Seed), func() (*workloadArtifact, error) {
		k, err := join.BuildKernel(kcfg)
		if err != nil {
			return nil, err
		}
		inst := structures.FromHashIndex(k.Index, k.ProbeKeyBase, k.Traces(0))
		return &workloadArtifact{masterImage: masterImage{as: k.AS}, inst: inst}, nil
	})
	if err != nil {
		return nil, err
	}
	return art.phase(key, structures.ProgramOptions{}), nil
}

// engineWorkload executes (or fetches from the warm cache) one query
// through the engine; the Instance covers the join's whole probe stream.
// The key is the rendered PlanSpec — value-typed, fully derived from the
// query spec and scale, and the complete input set of engine.Run.
func (c Config) engineWorkload(q workloads.QuerySpec) (*workloadArtifact, string, error) {
	spec := engine.FromWorkload(q, c.Scale)
	return c.workload(warmstate.NewFingerprint("engine").
		Field("spec", fmt.Sprintf("%+v", spec)), func() (*workloadArtifact, error) {
		res, err := engine.Run(spec)
		if err != nil {
			return nil, err
		}
		inst := structures.FromHashIndex(res.Index, res.ProbeKeyBase, res.Traces)
		return &workloadArtifact{masterImage: masterImage{as: res.AS}, inst: inst, eng: res}, nil
	})
}

// cmpWorkloadArtifact is one memoized partitioned CMP workload: the
// master image plus the per-agent partitions (Instances and program
// bundles), all read-only after build.
type cmpWorkloadArtifact struct {
	masterImage
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
		return &cmpWorkloadArtifact{masterImage: masterImage{as: as}, workloads: ws}, nil
	}, func(a *cmpWorkloadArtifact) uint64 { return a.as.ContentHash() })
	if err != nil {
		return nil, nil, "", err
	}
	return art.clone(), art.workloads, key, nil
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

// warmCMP warms the partitions ws into the one shared level sl, partition
// i into hiers[i]: round-robin block-interleaved, or — with interleaved
// false — one whole partition after another in order. A solo reference run
// warms its one-partition slice, for which the two policies coincide. With
// the cache enabled the snapshot is captured once from a throwaway level of
// identical warm-relevant geometry and restored into every consumer's
// level; the throwaway keeps the build closure self-contained, so
// verify-mode rebuilds replay the warm-up from scratch rather than
// re-capturing a level that has since executed. The key chains on the
// workload key and names the warming policy plus every warmed partition —
// by name, which carries its agent index, so solo warm-ups of identical
// agents stay apart — with its agent's warm-relevant geometry in
// attachment order, because the interleaved policy's eviction pattern
// depends on all of them together.
func (c Config) warmCMP(sl *mem.SharedLevel, hiers []*mem.Hierarchy, workloadKey string, ws []cmpAgentWorkload, interleaved bool) error {
	warm := func(hs []*mem.Hierarchy) {
		if interleaved {
			warmPartitionsInterleaved(hs, ws)
			return
		}
		for i := range hs {
			warmPartitionsInterleaved(hs[i:i+1], ws[i:i+1])
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
		f.Field("partition "+ws[i].name, warmSpecField(specs[i]))
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
