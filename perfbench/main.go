package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// deadline bounds a whole invocation: every child process is killed and
// waited for before it passes.
const deadline = 170 * time.Second

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: queries_sampled, zoo_full or cmp_contention")
	seed := flag.Uint64("seed", 1, "workload seed: drives the inputs the benchmark builds itself")
	seconds := flag.Int("seconds", 20, "time budget of the measured experiment runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	child := flag.Bool("child", false, "run the workload's experiment once and report it as JSON (used by the benchmark itself)")
	flag.Parse()

	// The simulator runs with one worker; two procs leave the garbage
	// collector a core without depending on the host's core count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	w, err := lookupWorkload(*workloadName)
	if err != nil {
		fail(err)
	}
	if *child {
		if err := json.NewEncoder(os.Stdout).Encode(runIteration(w)); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	var res result
	if *trace == 1 {
		res, err = runTraced(w, *seed, root)
	} else {
		res, err = runE2E(ctx, w, *seed, time.Duration(*seconds)*time.Second, root)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// runE2E measures the end-to-end metrics and prints them, with every check
// and stamp, ahead of the result line.
func runE2E(ctx context.Context, w *workload, seed uint64, budget time.Duration, root string) (result, error) {
	r, err := measureE2E(ctx, w, seed, budget, root)
	if err != nil {
		return result{}, err
	}
	printStamp(r.env, r.inputs)
	// Every time is reported in reference seconds: host seconds over the
	// run's mean speed factor. The host's speed swings within seconds, so
	// the experiments' wall time is the run's mean as well, taken over the
	// same span as the speed probes.
	speed := mean(r.speeds)
	good := r.good()
	var hostWalls, cpus, rss []float64
	var simCycles uint64
	for _, it := range good {
		hostWalls = append(hostWalls, it.WallS)
		cpus = append(cpus, it.CPUS)
		rss = append(rss, it.PeakRSSMB)
		simCycles = it.SimCycles // the same in every run that passed
	}
	wall := mean(hostWalls) / speed
	setup := median(r.setups) / speed
	m := map[string]metric{
		"wall_s":           {wall, "s"},
		"sim_cycles_per_s": {float64(simCycles) / wall, "1/s"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {median(rss), "MB"},
	}
	fmt.Printf("wall_s %.6g s (mean host_wall_s over mean host_speed)\n", wall)
	fmt.Printf("sim_cycles_per_s %.6g 1/s (sim.cycles over wall_s)\n", m["sim_cycles_per_s"].Value)
	fmt.Printf("setup_s %.6g s (median host_setup_s over mean host_speed)\n", setup)
	printSeries("peak_rss_mb", "MB", rss)
	printSeries("host_speed", "factor", r.speeds)
	printSeries("host_wall_s", "s", hostWalls)
	printSeries("host_cpu_s", "s", cpus)
	printSeries("host_setup_s", "s", r.setups)
	attempted, failed := len(r.iters), len(r.failures)
	fmt.Printf("fail_ratio %g (%d of %d runs failed)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, f := range r.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if len(good) > 0 {
		it := good[0]
		fmt.Printf("sim.cycles %d cycles\n", it.SimCycles)
		if it.PaperErrPct != nil {
			fmt.Printf("paper_err_pct %.4f %%\n", *it.PaperErrPct)
		} else {
			fmt.Printf("paper_err_pct unvalidated (no paper reference for %s)\n", w.experiment)
		}
		if it.CIRelHalfwidth != nil {
			fmt.Printf("ci_rel_halfwidth %.6f ratio\n", *it.CIRelHalfwidth)
		} else {
			fmt.Printf("ci_rel_halfwidth n/a (full-detail run)\n")
		}
	}
	fmt.Printf("report_digest %s\n", r.digest)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printStamp(env envStamp, in inputStamp) {
	fmt.Printf("env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPU, env.Commit)
	fmt.Printf("inputs probes=%d footprint_bytes=%d l1_bytes=%d llc_bytes=%d tlb_entries=%d\n",
		in.Probes, in.FootprintBytes, env.L1Bytes, env.LLCBytes, env.TLB)
}

// printSeries prints a metric's median with its quartiles and sample count.
func printSeries(name, unit string, xs []float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %.6g %s (median of %d", name, median(xs), unit, len(xs))
	if q, err := quartiles(xs); err == nil {
		fmt.Fprintf(&b, ", quartiles %.6g..%.6g", q[0], q[2])
	}
	b.WriteString(") [")
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	fmt.Println(b.String() + "]")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
