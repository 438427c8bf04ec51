// Quickstart: probe a hash-join index on the out-of-order baseline core and
// on the Widx accelerator with 1, 2 and 4 walkers, then co-run two Widx
// accelerators next to an OoO core on one shared memory hierarchy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"widx/internal/join"
	"widx/internal/sim"
)

func main() {
	// 1. A small experiment configuration: the paper's Table 2 machine,
	// the Small kernel index at 1/128 of the paper's size, and 8K probes
	// simulated in detail per design point.
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 128
	cfg.SampleProbes = 8000

	// 2. Compare the designs on one index: the OoO baseline replays the
	// software probe traces, Widx runs the generated dispatcher/walker/
	// producer programs with 1, 2 and 4 walkers.
	exp, err := cfg.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %14s %10s\n", "design", "cycles/tuple", "speedup")
	fmt.Printf("%-10s %14.1f %9.2fx\n", "ooo", exp.OoOCyclesPerTuple[join.Small], 1.0)
	for _, p := range exp.Points {
		fmt.Printf("%-10s %14.1f %9.2fx\n", fmt.Sprintf("widx-%dw", p.Walkers), p.CyclesPerTuple, p.Speedup)
	}

	// 3. The paper's CMP deployment: two Widx accelerators and an OoO core
	// co-run on ONE shared LLC, MSHR pool and memory-bandwidth schedule,
	// each probing its own partition. Every agent is compared against its
	// solo run on an uncontended hierarchy. Medium partitions at 1/8 scale
	// fit the LLC alone but overflow it together.
	specs, err := sim.ParseAgents("2xwidx:4w+ooo")
	if err != nil {
		log.Fatal(err)
	}
	cmpCfg := cfg
	cmpCfg.Scale = 1.0 / 8
	cmpCfg.SampleProbes = 2000
	co, err := cmpCfg.RunCMP(join.Medium, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared-memory co-run (%d agents, one hierarchy):\n", len(co.Agents))
	for _, a := range co.Agents {
		fmt.Printf("  %-10s %8.1f cycles/tuple (solo %6.1f, %.2fx slowdown), %6d LLC misses\n",
			a.Name, a.CyclesPerTuple, a.SoloCyclesPerTuple, a.Slowdown, a.MemStats.LLCMisses)
	}
	fmt.Printf("  system: %d cycles, shared MSHR pool full %.0f%% of cycles, %.0f%% off-chip bandwidth\n",
		co.SystemCycles, 100*co.MSHRSaturationShare, 100*co.BandwidthUtilization)
}
