package sim

import (
	"strings"
	"testing"

	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/structures"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// sampledTestConfig is the smallest configuration at which the systematic
// plan is non-degenerate for every experiment family: the kernel's Small
// probe stream (2048 probes at this scale) fits six 192+64 windows with
// fast-forward spans left over, and query/zoo/CMP streams are capped at
// SampleProbes so they see the same plan shape. The warmup is deliberately
// generous — the verify test asserts CI containment, and detailed warmup
// is the knob that shrinks fast-forward bias.
func sampledTestConfig() Config {
	c := QuickConfig()
	c.Scale = 1.0 / 8
	c.SampleProbes = 2000
	c.SampleWindows = 6
	c.SampleWarmup = 192
	c.SamplePeriod = 64
	c.Walkers = []int{2}
	return c
}

// checkSampledReport asserts the structural contract of a sampled run's
// report: present, not degraded, fingerprint-verified against the software
// reference, and carrying at least one estimate.
func checkSampledReport(t *testing.T, name string, r SamplingReporter) {
	t.Helper()
	rep := r.SamplingReport()
	if rep == nil {
		t.Fatalf("%s: sampled run produced no sampling report", name)
	}
	if rep.Degraded {
		t.Errorf("%s: plan degraded to full simulation; the test workload should fit the windows", name)
	}
	if !rep.FingerprintVerified {
		t.Errorf("%s: sampled match stream was not fingerprint-verified", name)
	}
	if len(rep.Metrics) == 0 {
		t.Errorf("%s: sampling report carries no metrics", name)
	}
	if rep.MeasuredProbes == 0 || rep.MeasuredProbes >= rep.TotalProbes {
		t.Errorf("%s: measured %d of %d probes; a sampled run must measure a strict subset",
			name, rep.MeasuredProbes, rep.TotalProbes)
	}
}

// TestSampledVerifyAgainstFullRun is the -sampling-verify contract for
// every experiment family: the sampled estimator's 95% confidence interval
// must cover the value a full-detail reference run — every probe simulated,
// the same windows measured — computes for the same metric name, so the
// only difference under test is the fast-forward approximation itself.
func TestSampledVerifyAgainstFullRun(t *testing.T) {
	sampled := sampledTestConfig()
	full := sampled
	full.SampleFullDetail = true
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	q := workloads.SimulatedQueries()[0]
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.BTree}}

	check := func(name string, run func(c Config) (SamplingReporter, error)) {
		t.Helper()
		s, err := run(sampled)
		if err != nil {
			t.Fatalf("%s sampled: %v", name, err)
		}
		checkSampledReport(t, name, s)
		f, err := run(full)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		if err := s.SamplingReport().Verify(f.SampledMetricValues()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	check("kernel", func(c Config) (SamplingReporter, error) { return c.RunKernel([]join.SizeClass{join.Small}) })
	check("query", func(c Config) (SamplingReporter, error) { return c.RunQuery(q) })
	check("walkerutil", func(c Config) (SamplingReporter, error) { return c.RunWalkerUtilization(join.Small, 2) })
	check("zoo", func(c Config) (SamplingReporter, error) { return c.RunZoo(zooOpt) })
	check("cmp", func(c Config) (SamplingReporter, error) { return c.RunCMP(join.Small, specs) })
}

// TestSampledDeterministicAcrossParallelism pins the determinism contract
// for sampled runs: window placement and per-window execution are pure
// functions of the configuration, so parallel fan-out must reproduce the
// sequential run byte for byte, sampling block included.
func TestSampledDeterministicAcrossParallelism(t *testing.T) {
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	q := workloads.SimulatedQueries()[0]
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.SkipList}}

	check := func(name string, run func(c Config) (any, error)) {
		t.Helper()
		seq := sampledTestConfig()
		seq.Parallelism = 1
		par := sampledTestConfig()
		par.Parallelism = 8
		a, err := run(seq)
		if err != nil {
			t.Fatalf("%s p=1: %v", name, err)
		}
		b, err := run(par)
		if err != nil {
			t.Fatalf("%s p=8: %v", name, err)
		}
		if w, g := resultJSON(t, a), resultJSON(t, b); g != w {
			t.Errorf("%s: sampled run differs across parallelism\np=1: %s\np=8: %s", name, w, g)
		}
	}

	check("kernel", func(c Config) (any, error) { return c.RunKernel([]join.SizeClass{join.Small}) })
	check("query", func(c Config) (any, error) { return c.RunQuery(q) })
	check("zoo", func(c Config) (any, error) { return c.RunZoo(zooOpt) })
	check("cmp", func(c Config) (any, error) { return c.RunCMP(join.Small, specs) })
}

// TestUnsampledManifestUnchanged locks the compatibility guarantee: with
// SampleWindows off, results must not mention sampling at all, so manifests
// from pre-sampling builds stay byte-identical. Full-detail runs execute
// the one-window plan through the same runners as sampled ones, so every
// experiment family is checked for a leaked sampling block or window data.
func TestUnsampledManifestUnchanged(t *testing.T) {
	c := warmTestConfig()
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.BTree}}
	runs := []struct {
		name string
		run  func() (SamplingReporter, error)
	}{
		{"kernel", func() (SamplingReporter, error) { return c.RunKernel([]join.SizeClass{join.Small}) }},
		{"query", func() (SamplingReporter, error) { return c.RunQuery(workloads.SimulatedQueries()[0]) }},
		{"zoo", func() (SamplingReporter, error) { return c.RunZoo(zooOpt) }},
		{"cmp", func() (SamplingReporter, error) { return c.RunCMP(join.Small, specs) }},
		{"walkerutil", func() (SamplingReporter, error) { return c.RunWalkerUtilization(join.Small, 2) }},
	}
	for _, r := range runs {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.SamplingReport() != nil {
			t.Errorf("unsampled %s run carries a sampling report", r.name)
		}
		js := resultJSON(t, res)
		for _, leak := range []string{"sampling", "windows"} {
			if strings.Contains(js, leak) {
				t.Errorf("unsampled %s JSON mentions %q: %s", r.name, leak, js)
			}
		}
		// The one measured span is the whole stream: every probe counts.
		want := uint64(c.sampleCount(4 * join.Small.Tuples(c.Scale)))
		switch e := res.(type) {
		case *KernelExperiment:
			for _, p := range e.Points {
				if p.Raw.Tuples != want {
					t.Errorf("unsampled kernel %dw measured %d of %d probes", p.Walkers, p.Raw.Tuples, want)
				}
			}
		case *CMPExperiment:
			for _, a := range e.Agents {
				if a.Tuples != want {
					t.Errorf("unsampled cmp agent %s measured %d of %d probes", a.Name, a.Tuples, want)
				}
			}
		}
	}
}

// wrongTableInstance is a probe workload whose Widx programs walk a table
// other than the one its reference was computed from. Key column, traces
// and reference are the wrapped Instance's, so only the fingerprint check
// can tell that the walker's output is wrong.
type wrongTableInstance struct {
	structures.Instance
	other structures.Instance
}

func (w wrongTableInstance) Programs(resultBase uint64, opt structures.ProgramOptions) (*structures.Programs, error) {
	return w.other.Programs(resultBase, opt)
}

// TestFullDetailCatchesWrongWalker checks that a full-detail hash-join
// phase verifies its Widx output: a walker over the wrong table must fail
// the run with the divergence error rather than report timings.
func TestFullDetailCatchesWrongWalker(t *testing.T) {
	c := QuickConfig()
	c.Parallelism = 1
	ph, err := c.kernelPhase(join.Small)
	if err != nil {
		t.Fatal(err)
	}
	points := []widxPoint{{walkers: 2}}
	if _, _, _, err := c.runPhase(ph, nil, points); err != nil {
		t.Fatalf("the kernel's own programs fail verification: %v", err)
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tbl, err := hashidx.Build(ph.as, hashidx.Config{Layout: hashidx.LayoutInline, Hash: hashidx.HashSimple, Name: "other"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ph.inst = wrongTableInstance{Instance: ph.inst, other: structures.FromHashIndex(tbl, ph.inst.ProbeKeyBase(), nil)}
	_, _, _, err = c.runPhase(ph, nil, points)
	if err == nil || !strings.Contains(err.Error(), "diverged from the software reference") {
		t.Fatalf("a walker over the wrong table passed full-detail verification: %v", err)
	}
}

// TestSampledWarmStoreCrossProcess exercises the persistent fast-forward
// checkpoints: a second "process" (fresh in-memory cache, reopened disk
// store) must restore the first run's warm snapshots from disk instead of
// re-warming, and produce byte-identical results — identical also to a run
// with no caching at all.
func TestSampledWarmStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()

	plain := sampledTestConfig()
	want, err := plain.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("cache-off run: %v", err)
	}

	store, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := sampledTestConfig()
	first.WarmCache = warmstate.New()
	first.WarmStore = store
	got, err := first.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("first stored run: %v", err)
	}
	if w, g := resultJSON(t, want), resultJSON(t, got); g != w {
		t.Errorf("warm-store run diverges from cache-off run\noff:    %s\nstored: %s", w, g)
	}
	if _, misses := store.Stats(); misses == 0 {
		t.Fatal("first run never consulted the disk store; checkpoints were not persisted through it")
	}

	reopened, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := sampledTestConfig()
	second.WarmCache = warmstate.New()
	second.WarmStore = reopened
	again, err := second.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("second stored run: %v", err)
	}
	if w, g := resultJSON(t, want), resultJSON(t, again); g != w {
		t.Errorf("disk-restored run diverges from cache-off run\noff:      %s\nrestored: %s", w, g)
	}
	hits, _ := reopened.Stats()
	if hits == 0 {
		t.Error("second process saw no disk hits; fast-forward checkpoints did not survive the process boundary")
	}
}
