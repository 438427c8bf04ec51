// The plan runner: every design point executes its probe stream through a
// sampling.Plan, and one runner, runPlan, drives every plan. A design
// point is a list of seats — one per agent, each a Widx accelerator or a
// host core with its hierarchy view, Instance and match stream — so a
// single-agent run (every runPhase design point, a cmp solo reference) is
// a one-seat list and a cmp co-run is the same runner over all its seats.
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
// software reference, in full detail and sampled alike. Every seat with a
// match stream — every Widx agent — concatenates the reference matches of
// its fast-forward spans with the simulated matches of its detailed spans,
// in probe order, and the fingerprint of that stream must equal the
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
	"widx/internal/system"
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

// seat is one agent of a plan run: its hierarchy view, the Instance it
// probes, its match stream (nil for a host core, which emits no matches)
// and the constructor of one detailed span's engine. A seat keeps the
// aggregate of its measured spans — a core or a Widx result, by kind — and
// one window observation per measured span.
type seat struct {
	// name labels the seat's output in a divergence error.
	name string
	hier *mem.Hierarchy
	inst structures.Instance
	// warmKey chains the opening fast-forward span's checkpoint on the
	// workload's warm-cache key ("" warms inline; see ffSpan).
	warmKey string
	stream  *matchStream
	// start builds the engine running one detailed span from startCycle;
	// finish collects that engine's result once it is done, folds a
	// measured span into the aggregate, and returns the span's cycles,
	// memory stats and matches.
	start  func(sp sampling.Span, startCycle uint64) (system.Agent, error)
	finish func(measured bool) (uint64, mem.Stats, []uint64, error)
	wins   []windowSample

	coreAgg cores.Result
	widxAgg *widx.OffloadResult
}

// measured returns the cycle and memory aggregates of the seat's measured
// spans.
func (s *seat) measured() (uint64, mem.Stats) {
	if s.widxAgg != nil {
		return s.widxAgg.TotalCycles, s.widxAgg.MemStats
	}
	return s.coreAgg.TotalCycles, s.coreAgg.MemStats
}

// newCoreSeat seats a baseline core on hier: each detailed span replays
// that span's reference traces.
func newCoreSeat(hier *mem.Hierarchy, inst structures.Instance, cfg cores.Config) (*seat, error) {
	core, err := cores.New(cfg, hier)
	if err != nil {
		return nil, err
	}
	_, traces := inst.Reference()
	s := &seat{hier: hier, inst: inst}
	var e *cores.ProbeEngine
	s.start = func(sp sampling.Span, startCycle uint64) (system.Agent, error) {
		var err error
		e, err = core.NewProbeEngine(traces[sp.Start:sp.End], startCycle)
		return e, err
	}
	s.finish = func(measured bool) (uint64, mem.Stats, []uint64, error) {
		r, err := e.Result()
		if err != nil {
			return 0, mem.Stats{}, nil, err
		}
		if measured {
			addCoreResult(&s.coreAgg, r)
		}
		return r.TotalCycles, r.MemStats, nil, nil
	}
	return s, nil
}

// newWidxSeat seats a Widx accelerator running progs on hier: each
// detailed span offloads that span's stretch of the probe-key column, and
// the output stream over the plan's probes is checked against the
// reference.
func newWidxSeat(name string, hier *mem.Hierarchy, as *vm.AddressSpace, inst structures.Instance, progs *structures.Programs, cfg widx.Config, plan sampling.Plan) (*seat, error) {
	acc, err := widx.New(cfg, hier, as, progs.Dispatcher, progs.Walker, progs.Producer)
	if err != nil {
		return nil, err
	}
	s := &seat{name: name, hier: hier, inst: inst, stream: newMatchStream(inst, plan.Probes),
		widxAgg: &widx.OffloadResult{Walkers: make([]widx.Breakdown, cfg.NumWalkers)}}
	var o *widx.OffloadAgent
	s.start = func(sp sampling.Span, startCycle uint64) (system.Agent, error) {
		var err error
		o, err = acc.StartOffload(widx.OffloadRequest{
			KeyBase:    inst.ProbeKeyBase() + sp.Start*8,
			KeyCount:   sp.Len(),
			StartCycle: startCycle,
		})
		return o, err
	}
	s.finish = func(measured bool) (uint64, mem.Stats, []uint64, error) {
		r, err := o.Result()
		if err != nil {
			return 0, mem.Stats{}, nil, err
		}
		if measured {
			addOffloadResult(s.widxAgg, r)
		}
		return r.TotalCycles, r.MemStats, r.Matches, nil
	}
	return s, nil
}

// runPlan executes the plan on every seat and returns the system cycles:
// the cycle the last detailed round ended. It is the one runner every
// design point goes through — a single-agent run is a one-seat list.
//
// The plan advances in lockstep rounds. A detailed round starts seat i's
// span at cursor + i·stagger, schedules every seat together in one
// system.Run (merged in globally monotonic cycle order on the shared
// level), then advances the cursor by the round's latest end; a measured
// round adds one window observation per seat. A fast-forward round appends
// each seat's reference matches and warms its hierarchy functionally.
// Every seat's stream is verified against the reference at the end.
func (c Config) runPlan(seats []*seat, plan sampling.Plan, stagger uint64) (uint64, error) {
	var cursor uint64
	agents := make([]system.Agent, len(seats))
	for _, s := range seats {
		s.wins = make([]windowSample, 0, plan.Windows)
	}
	detailed := func(sp sampling.Span) error {
		for i, s := range seats {
			a, err := s.start(sp, cursor+uint64(i)*stagger)
			if err != nil {
				return err
			}
			agents[i] = a
		}
		if err := system.Run(agents...); err != nil {
			return err
		}
		measured := sp.Kind == sampling.Measure
		var roundEnd uint64
		for i, s := range seats {
			cycles, st, matches, err := s.finish(measured)
			if err != nil {
				return err
			}
			s.stream.detailed(matches)
			roundEnd = max(roundEnd, uint64(i)*stagger+cycles)
			if measured {
				s.wins = append(s.wins, windowSample{cycles: cycles, tuples: sp.Len(), mshr: st.MeanMSHROccupancy()})
			}
		}
		cursor += roundEnd
		return nil
	}
	ff := func(sp sampling.Span) error {
		for _, s := range seats {
			s.stream.fastForward(sp)
			_, traces := s.inst.Reference()
			if err := c.ffSpan(s.hier, s.warmKey, traces, sp); err != nil {
				return err
			}
		}
		return nil
	}
	if c.SampleFullDetail {
		// Reference mode: fast-forward spans execute in detail too (their
		// Kind keeps them unmeasured), so the windows observe true history.
		ff = detailed
	}
	if err := plan.Run(ff, detailed); err != nil {
		return 0, err
	}
	for _, s := range seats {
		if err := s.stream.verify(s.name); err != nil {
			return 0, err
		}
	}
	return cursor, nil
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
