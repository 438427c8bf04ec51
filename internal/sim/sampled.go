// The plan runners: every design point executes its probe stream through a
// sampling.Plan, one runner per agent kind (runCore for baseline cores,
// runWidxPoint for Widx, runCMPSolo and the lockstep co-run loop in cmp.go).
// A full-detail run is the degenerate plan sampling.Full builds — one
// measured span over the whole stream — so it takes the same path as a
// SMARTS-style sampled run. When Config.SampleWindows is set, the plan
// instead interleaves detailed windows with fast-forward spans, which
// perform only functional state updates — the software reference's
// matches join the output stream and the addresses its traversal touches
// warm the cache tags and TLB pages (mem.WarmBlock), with no cycle
// accounting — while detailed spans run on the live machine exactly as a
// full run would, resuming at the cycle the previous span ended. Measured
// spans contribute one observation per window to the confidence estimator
// (internal/sampling/stats); warmup spans re-establish the
// microarchitectural state functional warming cannot reproduce (MSHR
// occupancy, queue fill, LRU recency) and are excluded from measurement.
//
// Correctness contract: the functional output is bit-identical to the
// software reference, in full detail and sampled alike. Every design point
// with a match stream concatenates the reference matches of its
// fast-forward spans with the simulated matches of its detailed spans, in
// probe order, and the fingerprint of that stream must equal the
// reference's over the plan's probes (structures.Instance supplies it for
// every phase) — a mismatch is a hard run error. Window placement is a
// pure function of (stream length, knobs), so sampled results are
// byte-identical at every parallelism level.
package sim

import (
	"fmt"

	"widx/internal/cores"
	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/widx"
)

// windowSample is one measured window's observation on one design point.
type windowSample struct {
	cycles uint64
	tuples uint64
	// mshr is the time-weighted mean MSHR occupancy over the window.
	mshr float64
}

// cpt is the window's cycles-per-tuple observation.
func (w windowSample) cpt() float64 {
	if w.tuples == 0 {
		return 0
	}
	return float64(w.cycles) / float64(w.tuples)
}

// cptSeries extracts the cycles-per-tuple observations.
func cptSeries(wins []windowSample) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w.cpt()
	}
	return out
}

// mshrSeries extracts the mean-MSHR-occupancy observations.
func mshrSeries(wins []windowSample) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w.mshr
	}
	return out
}

// speedupSeries pairs a baseline's windows with a design point's: window j
// observes base_cpt(j) / point_cpt(j). Both runs execute the same plan, so
// windows align by construction.
func speedupSeries(base, point []windowSample) []float64 {
	n := len(base)
	if len(point) < n {
		n = len(point)
	}
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		if p := point[j].cpt(); p > 0 {
			out[j] = base[j].cpt() / p
		}
	}
	return out
}

// ffWarm performs the functional side of a fast-forward span: every address
// the software reference traversal touches — probe key loads, bucket/root
// headers, node loads, key fetches — warms the agent's L1, the shared LLC
// and the TLB in access order. No Access is issued, so no cycles elapse and
// no counters move (mem/state.go documents the warming contract).
func ffWarm(hier *mem.Hierarchy, traces []hashidx.ProbeTrace) {
	for i := range traces {
		t := &traces[i]
		hier.WarmBlock(t.KeyAddr)
		hier.WarmBlock(t.BucketAddr)
		for _, s := range t.Steps {
			hier.WarmBlock(s.NodeAddr)
			if s.KeyFetchAddr != 0 {
				hier.WarmBlock(s.KeyFetchAddr)
			}
		}
	}
}

// ffSpan executes one fast-forward span's warming. The plan's opening span
// starts at probe 0, so its warm state is a pure function of the workload
// and the machine's warm-relevant geometry — that one span is checkpointed
// through the warm cache (and the disk store, surviving the process); later
// fast-forward spans depend on the detailed execution before them and warm
// inline.
func (c Config) ffSpan(hier *mem.Hierarchy, phaseKey string, traces []hashidx.ProbeTrace, sp sampling.Span) error {
	if c.WarmCache == nil || phaseKey == "" || sp.Start != 0 {
		ffWarm(hier, traces[sp.Start:sp.End])
		return nil
	}
	spec := hier.Spec()
	key := warmKey(warmstate.NewFingerprint("ffwarm").
		Field("phase", phaseKey).
		Field("end", sp.End).
		Field("shared", c.warmSharedField()).
		Field("spec", warmSpecField(spec)))
	st, err := c.warmStateCached(key, func() (*mem.WarmState, error) {
		tsl := c.newSharedLevel()
		th := tsl.NewAgent(spec)
		ffWarm(th, traces[:sp.End])
		return tsl.CaptureWarmState(), nil
	})
	if err != nil {
		return err
	}
	hier.Shared().RestoreWarmState(st)
	return nil
}

// matchStream assembles one design point's functional output in probe
// order — the reference matches of fast-forward spans and the simulated
// matches of detailed spans — and checks it against the reference matches
// of the plan's probes. The output of a single detailed span — a
// full-detail run — is that span's own slice, not a copy. A nil stream
// (a host core in a CMP run, which emits no matches) ignores every call.
type matchStream struct {
	// ref is the reference match stream of the plan's probes; probe i's
	// matches end at bounds[i].
	ref    []uint64
	bounds []int
	out    []uint64
}

// newMatchStream returns the stream of a point running the first n probes
// of inst.
func newMatchStream(inst structures.Instance, n uint64) *matchStream {
	matches, _ := inst.Reference()
	bounds := inst.MatchBounds()[:n]
	return &matchStream{ref: matches[:boundAt(bounds, n)], bounds: bounds}
}

// boundAt is the reference-stream offset where probe i starts.
func boundAt(bounds []int, i uint64) int {
	if i == 0 {
		return 0
	}
	return bounds[i-1]
}

// fastForward appends the reference matches of the span's probes.
func (s *matchStream) fastForward(sp sampling.Span) {
	if s == nil {
		return
	}
	if s.out == nil {
		s.out = make([]uint64, 0, len(s.ref))
	}
	s.out = append(s.out, s.ref[boundAt(s.bounds, sp.Start):boundAt(s.bounds, sp.End)]...)
}

// detailed appends a detailed span's simulated matches.
func (s *matchStream) detailed(matches []uint64) {
	if s == nil {
		return
	}
	if s.out == nil {
		s.out = matches
		return
	}
	s.out = append(s.out, matches...)
}

// verify enforces the bit-identical-output contract: the assembled stream
// must fingerprint-match the software reference.
func (s *matchStream) verify(what string) error {
	if s == nil {
		return nil
	}
	refFP := structures.Fingerprint(s.ref)
	if got := structures.Fingerprint(s.out); got != refFP {
		return fmt.Errorf("sim: %s output diverged from the software reference (%d matches fp %#x, want %d fp %#x)",
			what, len(s.out), got, len(s.ref), refFP)
	}
	return nil
}

// addCoreResult accumulates one measured span's core result.
func addCoreResult(agg *cores.Result, r cores.Result) {
	agg.Tuples += r.Tuples
	agg.TotalCycles += r.TotalCycles
	agg.CompCycles += r.CompCycles
	agg.MemCycles += r.MemCycles
	agg.TLBCycles += r.TLBCycles
	agg.HashCycles += r.HashCycles
	agg.WalkCycles += r.WalkCycles
	agg.Instructions += r.Instructions
	agg.MemStats = agg.MemStats.Add(r.MemStats)
}

// addOffloadResult accumulates one measured span's offload result.
func addOffloadResult(agg *widx.OffloadResult, r *widx.OffloadResult) {
	agg.Tuples += r.Tuples
	agg.TotalCycles += r.TotalCycles
	for i := range r.Walkers {
		agg.Walkers[i].Add(r.Walkers[i])
	}
	agg.WalkerTotal.Add(r.WalkerTotal)
	agg.DispatcherBusy += r.DispatcherBusy
	agg.DispatcherStall += r.DispatcherStall
	agg.ProducerBusy += r.ProducerBusy
	agg.MemStats = agg.MemStats.Add(r.MemStats)
}

// runCore replays the phase's traces on a baseline core through the plan:
// fast-forward spans warm functionally, detailed spans run on the live core
// resuming at the cycle the previous span ended. The returned result
// aggregates the measured spans only (its CyclesPerTuple is the
// measured-probe-weighted window mean), alongside the per-window
// observations. Under the full plan the aggregate is the whole run.
func (c Config) runCore(ph *indexPhase, coreCfg cores.Config, plan sampling.Plan) (cores.Result, []windowSample, error) {
	sl := c.newSharedLevel()
	hier := sl.NewAgent(sl.Topology().Agent("host"))
	core, err := cores.New(coreCfg, hier)
	if err != nil {
		return cores.Result{}, nil, err
	}
	_, traces := ph.inst.Reference()
	var agg cores.Result
	wins := make([]windowSample, 0, plan.Windows)
	var cursor uint64
	detailed := func(sp sampling.Span) error {
		res, err := core.RunProbes(traces[sp.Start:sp.End], cursor)
		if err != nil {
			return err
		}
		cursor += res.TotalCycles
		if sp.Kind != sampling.Measure {
			return nil
		}
		wins = append(wins, windowSample{cycles: res.TotalCycles, tuples: res.Tuples, mshr: res.MemStats.MeanMSHROccupancy()})
		addCoreResult(&agg, res)
		return nil
	}
	ff := func(sp sampling.Span) error {
		return c.ffSpan(hier, ph.warmKey, traces, sp)
	}
	if c.SampleFullDetail {
		// Reference mode: fast-forward spans execute in detail too (their
		// Kind keeps them unmeasured), so the windows observe true history.
		ff = detailed
	}
	if err := plan.Run(ff, detailed); err != nil {
		return cores.Result{}, nil, err
	}
	return agg, wins, nil
}

// runWidxPoint executes the phase's probes on one Widx design point through
// the plan. Fast-forward spans append the reference matches of their probes
// to the output stream and warm the hierarchy; detailed spans offload the
// span's key range at the current cursor. The combined stream is verified
// against the reference before the result is returned.
func (c Config) runWidxPoint(ph *indexPhase, as *vm.AddressSpace, resultBase uint64, p widxPoint, plan sampling.Plan) (*widx.OffloadResult, []windowSample, error) {
	progs, err := ph.inst.Programs(resultBase, ph.prog)
	if err != nil {
		return nil, nil, err
	}
	sl := c.newSharedLevel()
	hier := sl.NewAgent(c.widxSpec(sl.Topology(), "widx"))
	acc, err := widx.New(widx.Config{NumWalkers: p.walkers, QueueDepth: c.queueDepth(), Mode: p.mode},
		hier, as, progs.Dispatcher, progs.Walker, progs.Producer)
	if err != nil {
		return nil, nil, err
	}
	_, traces := ph.inst.Reference()
	agg := &widx.OffloadResult{Walkers: make([]widx.Breakdown, p.walkers)}
	stream := newMatchStream(ph.inst, plan.Probes)
	wins := make([]windowSample, 0, plan.Windows)
	var cursor uint64
	detailed := func(sp sampling.Span) error {
		res, err := acc.Offload(widx.OffloadRequest{
			KeyBase:    ph.inst.ProbeKeyBase() + sp.Start*8,
			KeyCount:   sp.Len(),
			StartCycle: cursor,
		})
		if err != nil {
			return err
		}
		cursor += res.TotalCycles
		stream.detailed(res.Matches)
		if sp.Kind != sampling.Measure {
			return nil
		}
		wins = append(wins, windowSample{cycles: res.TotalCycles, tuples: res.Tuples, mshr: res.MemStats.MeanMSHROccupancy()})
		addOffloadResult(agg, res)
		return nil
	}
	ff := func(sp sampling.Span) error {
		stream.fastForward(sp)
		return c.ffSpan(hier, ph.warmKey, traces, sp)
	}
	if c.SampleFullDetail {
		ff = detailed
	}
	if err := plan.Run(ff, detailed); err != nil {
		return nil, nil, err
	}
	if err := stream.verify(ph.inst.Kind().String() + " walker"); err != nil {
		return nil, nil, err
	}
	agg.Matches = stream.out
	return agg, wins, nil
}

// phaseSampling carries one phase's sampled execution record back to the
// experiment layer: the report seeded from the executed plan and each
// design point's window observations, parallel to runPhase's result slices.
type phaseSampling struct {
	report   *sampling.Report
	baseWins [][]windowSample
	widxWins [][]windowSample
}

// addSampledPoint records one Widx design point's three headline metric
// series under the given name prefix: cycles-per-tuple, speedup against the
// baseline's aligned windows (skipped when base is nil — e.g. sweeps with
// no baseline core), and mean MSHR occupancy.
func addSampledPoint(r *sampling.Report, prefix string, base, wins []windowSample) {
	r.Add(sampledMetricName(prefix, metricCPT), cptSeries(wins))
	if base != nil {
		r.Add(sampledMetricName(prefix, metricSpeedup), speedupSeries(base, wins))
	}
	r.Add(sampledMetricName(prefix, metricMSHR), mshrSeries(wins))
}

// SamplingReporter is implemented by every experiment result that can carry
// a sampled-estimate block: the report itself (nil when sampling was off)
// and, for verification, the full-run values of the same metrics under the
// same names — the -sampling-verify mode runs an experiment both ways and
// asserts every full-run value falls inside the sampled run's interval.
type SamplingReporter interface {
	SamplingReport() *sampling.Report
	SampledMetricValues() map[string]float64
}

// sampledMetricName renders the canonical metric names shared by the
// sampled estimator and the full-run metric map.
func sampledMetricName(prefix, metric string) string {
	return prefix + " " + metric
}

const (
	metricCPT     = "cycles-per-tuple"
	metricSpeedup = "speedup-vs-ooo"
	metricMSHR    = "mshr-occupancy"
)
