package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// A run builds the workload's inputs at least minSetupReps times and until
// minSetupTime has passed, at most maxSetupReps times; setup_s is the
// median. Cheap setups thus get enough repetitions to be steady.
const (
	minSetupReps = 3
	maxSetupReps = 50
	minSetupTime = time.Second
)

// iteration is what one measured child process reports: one experiment run
// from a fresh process, as one CLI call.
type iteration struct {
	Err            string              `json:"err,omitempty"`
	WallS          float64             `json:"wall_s"`
	CPUS           float64             `json:"cpu_s"`
	Digest         string              `json:"digest"`
	SimCycles      uint64              `json:"sim_cycles"`
	PaperErrPct    *float64            `json:"paper_err_pct,omitempty"`
	CIRelHalfwidth *float64            `json:"ci_rel_halfwidth,omitempty"`
	Sampled        bool                `json:"sampled"`
	FPVerified     bool                `json:"fingerprint_verified"`
	Zoo            map[string]zooMatch `json:"zoo,omitempty"`
	PeakRSSMB      float64             `json:"-"` // filled in by the parent
}

// runIteration runs the workload's experiment once and reports it. It is
// the body of a measured child process.
func runIteration(w *workload) iteration {
	cfg := w.config()
	t, cpu := time.Now(), cpuTime()
	out, err := w.run(cfg)
	if err != nil {
		return iteration{Err: err.Error()}
	}
	m, err := out.Manifest()
	if err != nil {
		return iteration{Err: err.Error()}
	}
	digest, data, err := reportDigest(m)
	if err != nil {
		return iteration{Err: err.Error()}
	}
	it := iteration{WallS: time.Since(t).Seconds(), CPUS: cpuTime() - cpu, Digest: digest}
	if err := it.extract(data); err != nil {
		it.Err = err.Error()
	}
	return it
}

// cpuTime is the user plus system CPU seconds this process has used.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// extract fills the manifest-derived fields.
func (it *iteration) extract(manifest []byte) error {
	doc, err := decodeManifest(manifest)
	if err != nil {
		return err
	}
	if it.SimCycles, err = simCycles(doc); err != nil {
		return err
	}
	pct, ok, err := paperErrPct(doc)
	if err != nil {
		return err
	}
	if ok {
		it.PaperErrPct = &pct
	}
	if rel, ok := ciRelHalfwidth(doc); ok {
		it.CIRelHalfwidth = &rel
	}
	if doc.Sampling != nil {
		it.Sampled = true
		it.FPVerified = doc.Sampling.FingerprintVerified
	}
	it.Zoo, err = zooMatches(doc)
	return err
}

// runChild runs one iteration in a fresh process of this binary and reads
// its high-water resident set size.
func runChild(ctx context.Context, w *workload) (iteration, error) {
	self, err := os.Executable()
	if err != nil {
		return iteration{}, err
	}
	cmd := exec.CommandContext(ctx, self, "--child", "--workload", w.name)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return iteration{Err: fmt.Sprintf("child process: %v", err)}, nil
	}
	var it iteration
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &it); err != nil {
		return iteration{Err: fmt.Sprintf("child report: %v", err)}, nil
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		it.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return it, nil
}

// e2eResult is one run's end-to-end measurement.
type e2eResult struct {
	env    envStamp
	inputs inputStamp
	setups []float64 // host seconds of each input build
	// speeds are the host's speed factors (see hostref.go), taken before
	// the first and after every timed build and experiment.
	speeds   []float64
	iters    []iteration
	failures []string // one line per failed iteration
	digest   string
}

// measureE2E builds the inputs repeatedly, then runs the experiment
// in fresh child processes, one after another, until the next one would
// end past the time budget (at least one runs).
func measureE2E(ctx context.Context, w *workload, seed uint64, budget time.Duration, root string) (*e2eResult, error) {
	res := &e2eResult{env: stampEnv(root)}
	ref := newHostRef()
	probe := func() { res.speeds = append(res.speeds, ref.speed()) }
	probe()
	for begin := time.Now(); len(res.setups) < maxSetupReps &&
		(len(res.setups) < minSetupReps || time.Since(begin) < minSetupTime); {
		runtime.GC()
		t := time.Now()
		st, err := w.setup(w, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(t).Seconds())
		res.inputs = st
		probe()
	}
	var zooRef map[string]zooMatch
	if w.experiment == "zoo" {
		var err error
		if zooRef, err = zooReference(w); err != nil {
			return nil, err
		}
	}
	// Hand the setup's heap back to the OS now, so that the runtime does
	// not return it in the background while the children are timed.
	debug.FreeOSMemory()

	start := time.Now()
	probe()
	for {
		t := time.Now()
		it, err := runChild(ctx, w)
		if err != nil {
			return nil, err
		}
		probe()
		res.iters = append(res.iters, it)
		last := time.Since(t)
		if ctx.Err() != nil || time.Since(start)+last > budget {
			break
		}
	}
	res.check(w, zooRef)
	return res, nil
}

// check applies the correctness checks to every iteration: it must have
// run without error, its report digest must match the set's majority, a
// sampled run must have verified its functional fingerprint, and a zoo run
// must report every structure's reference match stream.
func (r *e2eResult) check(w *workload, zooRef map[string]zooMatch) {
	count := map[string]int{}
	for _, it := range r.iters {
		if it.Err == "" {
			count[it.Digest]++
		}
	}
	for d, n := range count {
		if n > count[r.digest] || (n == count[r.digest] && d < r.digest) {
			r.digest = d
		}
	}
	for i, it := range r.iters {
		var why string
		switch {
		case it.Err != "":
			why = it.Err
		case it.Digest != r.digest:
			why = fmt.Sprintf("report digest %s differs from the set's %s", it.Digest, r.digest)
		case w.sampling && !(it.Sampled && it.FPVerified):
			why = "sampled run did not verify its functional fingerprint"
		default:
			why = checkZoo(it.Zoo, zooRef)
		}
		if why != "" {
			r.failures = append(r.failures, fmt.Sprintf("iteration %d: %s", i, why))
			r.iters[i].Err = why
		}
	}
}

func checkZoo(got, want map[string]zooMatch) string {
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Sprintf("zoo %s reported %+v, want the software reference's %+v", k, g, want[k])
		}
	}
	return ""
}

// good returns the iterations that passed every check.
func (r *e2eResult) good() []iteration {
	var out []iteration
	for _, it := range r.iters {
		if it.Err == "" {
			out = append(out, it)
		}
	}
	return out
}
