// The hash join: the zoo's calibration point. FromHashIndex wraps any
// internal/hashidx bucket-chain index and its probe stream behind the
// structures.Instance interface, so every hash-join workload — the kernel,
// the query engine's indirect-layout index, the CMP partitions and the
// zoo's own inline build — is probed through exactly the same code paths as
// the other structures. The generated non-touching programs are the
// canonical internal/program bundle; the touching variant (inline layout
// only) reorders the walker to load each node's next pointer first and
// TOUCH it before comparing the current node's key.
package structures

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/program"
	"widx/internal/stats"
	"widx/internal/vm"
)

const hashjoinPayloadTag = uint64(0x8A) << 40

func hashjoinPayload(key uint64) uint64 { return key ^ hashjoinPayloadTag }

// hashjoinInstance is a hash index with its probe stream.
type hashjoinInstance struct {
	baseInstance
	table *hashidx.Table
}

// FromHashIndex adapts a built hash index of either layout and a probe
// stream over it into an Instance. The probe keys sit in an 8-byte-stride
// column at probeBase and traces[i] is probe i's software trace. The
// reference match stream is tbl.ProbeMatches of every probe key, computed
// here from the table's image, so callers that later clone that image must
// call FromHashIndex first.
func FromHashIndex(tbl *hashidx.Table, probeBase uint64, traces []hashidx.ProbeTrace) Instance {
	inst := &hashjoinInstance{table: tbl}
	inst.kind = HashJoin
	inst.probeBase = probeBase
	inst.probes = len(traces)
	inst.regions = tbl.Regions()
	inst.geom = Geometry{
		NodeBytes:      int(tbl.NodeSize()),
		Fanout:         1,
		Levels:         tbl.MaxChain(),
		FootprintBytes: tbl.FootprintBytes(),
		Locality:       "hashed bucket headers, short collision chains",
	}
	inst.traces = traces
	// Hash-join workloads probe unique build keys, so one match per probe
	// is the usual stream length.
	inst.matches = make([]uint64, 0, len(traces))
	inst.bounds = make([]int, len(traces))
	for i := range traces {
		inst.matches = append(inst.matches, tbl.ProbeMatches(traces[i].Key)...)
		inst.bounds[i] = len(inst.matches)
	}
	return inst
}

func buildHashJoin(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	ks := genKeySet(rng, cfg.Keys)
	payloads := make([]uint64, len(ks.keys))
	for i, k := range ks.keys {
		payloads[i] = hashjoinPayload(k)
	}
	// At least two buckets: the walker programs mask bucket indexes, and a
	// single-bucket mask of zero is rejected by program.Spec.
	buckets := uint64(2)
	for buckets < uint64(len(ks.keys)) {
		buckets <<= 1
	}
	tbl, err := hashidx.Build(as, hashidx.Config{
		Layout:      hashidx.LayoutInline,
		Hash:        hashidx.HashSimple,
		BucketCount: buckets,
		Name:        cfg.Name + ".index",
	}, ks.keys, payloads)
	if err != nil {
		return nil, err
	}
	probes := ks.probeStream(rng, cfg.Probes)
	probeBase := writeColumn(as, cfg.Name+".probes", probes)
	traces := make([]hashidx.ProbeTrace, len(probes))
	for i, p := range probes {
		traces[i] = tbl.ProbeFrom(p, probeBase+uint64(i)*8).Trace
	}
	return FromHashIndex(tbl, probeBase, traces), nil
}

// touchWalker is the inline-layout walker reordered for MLP: each
// iteration loads the node's next pointer first and TOUCHes it (when
// non-null) before the current node's key compare resolves, overlapping
// the chain's next dependent miss with the current one. The emit order —
// and so the match stream — is identical to the canonical walker's.
func touchWalker() *isa.Program {
	return isa.MustAssemble(`
.unit walker
.name walk_hashjoin_touch
.in r1, r2
.out r3
loop:
    ld   r6, [r1+16]   ; next pointer first
    ble  r6, r0, cur   ; end of chain: nothing to touch
    touch [r6]         ; prefetch the next node
cur:
    ld   r4, [r1]      ; current node's key (EmptyKey on an empty header)
    cmp  r5, r4, r2
    ble  r5, r0, step
    ld   r3, [r1+8]
    emit
step:
    add  r1, r6, #0
    ble  r1, r0, done
    ba   loop
done:
    halt
`)
}

// Programs generates the canonical internal/program bundle for the table.
// The touching walker hard-codes the inline node offsets, so it is refused
// for any other layout.
func (h *hashjoinInstance) Programs(resultBase uint64, opt ProgramOptions) (*Programs, error) {
	spec := program.SpecForTable(h.table, resultBase)
	d, err := program.Dispatcher(spec)
	if err != nil {
		return nil, err
	}
	var w *isa.Program
	switch {
	case !opt.TouchWalker:
		w, err = program.Walker(spec)
	case spec.Layout == hashidx.LayoutInline:
		w = touchWalker()
	default:
		err = fmt.Errorf("structures: the touching walker needs the inline layout, not %s", spec.Layout)
	}
	if err != nil {
		return nil, err
	}
	return finishPrograms(d, w, resultBase, opt)
}
