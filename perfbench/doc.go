// Command perfbench is the Widx simulator's benchmark: one command that
// runs a named workload through the public experiment entry points
// (exp.Run / exp.RunSweep, as cmd/experiments does) and prints every
// end-to-end metric with its unit, or, with --trace 1, a traced run that
// times calls into each layer and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package from the checkout's sources into .bench_build
// (build cache included) and runs it from the checkout root. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics; the lines before it repeat each metric with its
// quartiles and sample count, the environment stamp (Go version,
// GOMAXPROCS, nproc, CPU model, commit) and the inputs (probe count,
// structure footprint, the cache sizes of mem.DefaultConfig()). Host times
// compare only between runs with the same stamp.
//
// # Workloads
//
//   - queries_sampled: queries at -scale 0.05 -sample 0 -sampling.
//   - zoo_full: zoo at -scale 0.005.
//   - cmp_contention: cmp at its defaults with -sweep stagger=0,1000,10000.
//
// Every experiment runs with one worker (-parallel 1), at most two procs,
// an empty warm cache of its own and no warm store: the state a fresh CLI
// call starts from.
//
// # End-to-end run (--trace 0)
//
// The run first builds the workload's inputs through their public builders
// (engine.Run on engine.FromWorkload for the queries, structures.Build for
// the zoo, join.BuildKernel for the cmp agents) at least three times and
// for at least a second. It then runs the experiment in fresh child
// processes of this binary, one after another, until the next would end
// past --seconds (at least one runs).
//
// The host is a share of a machine whose speed for this kind of work swings
// within seconds and drifts by up to ~1.7x over minutes, so host times are
// reported in reference seconds (hostref.go): before the first build and
// after every build and experiment the run times a fixed reference
// workload of its own (a dependent-load chase, map inserts, a sort) and
// takes the host's speed factor, its time over the nominal time of a calm
// host. A reference second is a host second divided by the run's mean
// speed factor. In two sets of ten runs per workload on a 2-vCPU Xeon host,
// the host wall times spread 0.07 to 0.33 (interquartile range over median)
// and wall_s 0.06 to 0.12, and the sets' wall_s medians differed by at most
// 7% where their host wall medians differed by up to 36%. The end-to-end
// metrics are:
//
//   - wall_s: the run's mean host seconds per experiment, manifest
//     included, in reference seconds. A mean rather than a median, because
//     the speed probes sample the host's speed evenly over the same span.
//   - sim_cycles_per_s: simulated cycles the manifest reports (Widx
//     TotalCycles, baseline cycles, CMP system plus solo cycles) per
//     wall_s.
//   - setup_s: the median input build, in reference seconds.
//   - peak_rss_mb: the median over the experiments of the child process's
//     high-water resident set.
//
// The host figures behind them are printed above the result line and not
// gated: host_speed (every probe), host_wall_s, host_setup_s and
// host_cpu_s, the child's user plus system CPU seconds over the same span
// as host_wall_s.
//
// Every run is checked: the experiment must succeed, its report digest
// (the manifest without its Parallelism echo, printed as report_digest so
// two commits can be compared) must match the other runs of the set, a
// sampled run must have verified its functional fingerprint, and the zoo
// must report each structure's software-reference match stream. fail_ratio
// (failed over attempted runs) is the result line's failed and attempted.
// paper_err_pct (queries only: mean absolute relative error of each query's
// four-walker indexing speedup against the paper's Figure 10) and
// ci_rel_halfwidth (sampled runs only: mean 95% half-width over |mean| of
// the manifest's sampled metrics) are printed above the result line; they
// exist for some workloads only, and the result line carries only metrics
// every workload has. The zoo and cmp workloads have no paper reference and
// are reported as unvalidated.
//
// # Traced run (--trace 1)
//
// The traced run keeps spans in memory around every call it makes into a
// layer's public functions and writes them to
// .bench_build/traces/<workload>-seed<n>.json at the end; a layer's self
// time is its span minus the child spans inside it. It runs the experiment
// once with an injected warm cache, times the three input builders, rebuilds
// the workload's Widx offloads from structures.Build, Instance.Programs and
// widx.New(...).StartOffload plus an out-of-order core's ProbeEngine over
// Instance.Reference() traces, runs them under system.Run behind a
// pass-through agent decorator that times Settle and GrantMem, replays the
// reference traces through the memory system and the address space, and
// drives the default sampling plan's fast-forward. interactions.json says
// how each metric is measured, which end-to-end metric and workload it
// should move and where it should not; metrics marked det there are
// deterministic counts that a simulator-speed change must leave unchanged.
//
// # Seeds
//
// --seed drives every input the benchmark builds itself: the setup builds
// and the traced run's engine plans, kernels and structures. sim.Config has
// no workload seed, so the experiments themselves run at the registry's
// fixed seeds and their digests do not depend on --seed.
package main
