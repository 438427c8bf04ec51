package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"widx/internal/cores"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/widx"
)

// This file is the parallel experiment runner. Design points (and whole
// workloads) are independent experiments — each gets a freshly warmed memory
// hierarchy — so they can run on separate goroutines as long as nothing
// mutable is shared. The two rules that keep parallel results bit-identical
// to a sequential run are:
//
//  1. Result slots are indexed, never appended: every task writes its result
//     into a pre-sized slice at its own index, so collection order is stable
//     regardless of completion order.
//  2. Address-space allocations happen before the fan-out, in the exact order
//     the sequential runner would perform them, and every Widx task then runs
//     against its own vm.AddressSpace clone. Allocation order fixes result-
//     buffer addresses, addresses fix cache-set and TLB behaviour, and the
//     clone keeps the producer's result stores private to the task.

// parallelism returns the effective worker count (at least 1).
func (c Config) parallelism() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

// RunTasks executes task(0..n-1), fanning out to at most c.parallelism()
// workers. With a parallelism of 1 the tasks run inline in index order,
// exactly like the historical sequential loops. Once any task fails, tasks
// that have not started yet are skipped (experiments are minutes long; there
// is no point finishing a doomed run), and the lowest-indexed error that was
// recorded is returned. When c.Ctx is cancelled, tasks that have not started
// are likewise skipped and Ctx.Err() is returned (task errors win if both
// happened): the harness nests RunTasks fan-outs (sweep points over design
// points over workloads), so one cancelled context aborts every level at its
// next task boundary. It is exported because the exp sweep layer fans
// parameter grids out through the same pool, with the same determinism
// contract: tasks write results into their own index, never append.
func (c Config) RunTasks(n int, task func(i int) error) error {
	p := c.parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := c.cancelled(); err != nil {
				return err
			}
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() || c.cancelled() != nil {
					continue
				}
				if err := task(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return c.cancelled()
}

// cancelled returns the configured context's error, if any.
func (c Config) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// InnerConfig returns a copy of c whose Parallelism is one worker's share of
// the budget after fanning out outerTasks, so that nested fan-outs (queries
// within a suite, design points within a query, runs within a sweep) do not
// multiply the total worker count far beyond c.Parallelism. The share rounds
// up — leaving cores idle costs more than a few extra CPU-bound goroutines
// for the scheduler to multiplex.
func (c Config) InnerConfig(outerTasks int) Config {
	p := c.parallelism()
	if outerTasks > p {
		outerTasks = p
	}
	inner := c
	if outerTasks > 0 {
		inner.Parallelism = (p + outerTasks - 1) / outerTasks
	}
	return inner
}

// widxPoint identifies one Widx design point of a phase.
type widxPoint struct {
	walkers int
	mode    widx.HashingMode
}

// runPhase executes one indexing phase on every requested design point: the
// given baseline cores plus Widx at every point. It is the one place the
// parallel-determinism rules above are applied: result regions for all
// Widx points are allocated up front, in point order, on the phase's own
// address space (the order a sequential runner would produce), each sized
// for the phase's whole reference match stream; then every clone is taken;
// then the design points fan out, each Widx task on a private clone when
// running in parallel. Returned slices are parallel to the input slices.
//
// Every design point is one seat on its own freshly built machine, and
// runs the same plan (samplePlan) over the sampled probe prefix through
// runPlan: with sampling off that is the one-window full plan, so a
// full-detail run is the degenerate sampled run. Its seat carries the
// phase's warm key, so the plan's opening fast-forward span restores a
// checkpoint shared across design points. Every Widx point's output is
// verified against the reference matches of that prefix. The per-window
// observations come back in phaseSampling, which is nil when sampling is
// off. Plan placement is a pure function of the stream, so parallel runs
// stay bit-identical to sequential ones.
func (c Config) runPhase(ph *indexPhase, baselines []cores.Config, points []widxPoint) ([]cores.Result, []*widx.OffloadResult, *phaseSampling, error) {
	matches, _ := ph.inst.Reference()
	resultBases := make([]uint64, len(points))
	for i, p := range points {
		resultBases[i] = ph.as.AllocAligned(fmt.Sprintf("results.w%d.m%d", p.walkers, p.mode), uint64(len(matches))*8+64)
	}
	// Private memory images for parallel Widx tasks: the producer's result
	// stores must not touch the address space other tasks are reading. The
	// clones are copy-on-write and must all be taken before the fan-out
	// (vm.AddressSpace.Clone mutates the parent's sharing bookkeeping).
	spaces := make([]*vm.AddressSpace, len(points))
	for i := range spaces {
		if c.parallelism() <= 1 {
			spaces[i] = ph.as
		} else {
			spaces[i] = ph.as.Clone()
		}
	}

	plan := c.samplePlan(c.sampleCount(ph.inst.ProbeCount()))
	baseRes := make([]cores.Result, len(baselines))
	widxRes := make([]*widx.OffloadResult, len(points))
	wins := make([][]windowSample, len(baselines)+len(points))
	err := c.RunTasks(len(wins), func(i int) error {
		sl := c.newSharedLevel()
		var s *seat
		var err error
		if i < len(baselines) {
			s, err = newCoreSeat(sl.NewAgent(sl.Topology().Agent("host")), ph.inst, baselines[i])
		} else {
			j := i - len(baselines)
			var progs *structures.Programs
			if progs, err = ph.inst.Programs(resultBases[j], ph.prog); err != nil {
				return err
			}
			s, err = newWidxSeat(ph.inst.Kind().String()+" walker", sl.NewAgent(c.widxSpec(sl.Topology(), "widx")), spaces[j], ph.inst, progs,
				widx.Config{NumWalkers: points[j].walkers, QueueDepth: c.queueDepth(), Mode: points[j].mode}, plan)
		}
		if err != nil {
			return err
		}
		s.warmKey = ph.warmKey
		if _, err := c.runPlan([]*seat{s}, plan, 0); err != nil {
			return err
		}
		if i < len(baselines) {
			baseRes[i] = s.coreAgg
		} else {
			widxRes[i-len(baselines)] = s.widxAgg
		}
		wins[i] = s.wins
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rep := c.sampleReport(plan)
	if rep == nil {
		return baseRes, widxRes, nil, nil
	}
	rep.FingerprintVerified = len(points) > 0
	return baseRes, widxRes, &phaseSampling{report: rep, baseWins: wins[:len(baselines)], widxWins: wins[len(baselines):]}, nil
}

// walkerPoints returns the configured walker sweep as phase design points.
func (c Config) walkerPoints(mode widx.HashingMode) []widxPoint {
	pts := make([]widxPoint, len(c.Walkers))
	for i, w := range c.Walkers {
		pts[i] = widxPoint{walkers: w, mode: mode}
	}
	return pts
}
