package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"widx/internal/exp"
	"widx/internal/sim"
)

func loadFixture(t *testing.T, name string) *manifestDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSimCycles(t *testing.T) {
	for _, c := range []struct {
		fixture string
		want    uint64
	}{
		// q2: 2000+400 Widx, round((100.5+200.25)*10) = 3008 baseline;
		// q37: 70 Widx, (50+100)*4 = 600 baseline.
		{"queries_sampled.json", 2400 + 3008 + 70 + 600},
		// hashjoin: 90+30 Widx, round(10.5*3) = 32 baseline; bfs: 25+40.
		{"zoo.json", 90 + 30 + 32 + 25 + 40},
		// Two sweep points: system cycles plus both agents' solo cycles.
		{"cmp_sweep.json", 1000 + 610 + 1100 + 610},
	} {
		got, err := simCycles(loadFixture(t, c.fixture))
		if err != nil {
			t.Fatalf("%s: %v", c.fixture, err)
		}
		if got != c.want {
			t.Errorf("%s: simCycles = %d, want %d", c.fixture, got, c.want)
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	// |2.5-2|/2 and |3-4|/4 average to 25%.
	pct, ok, err := paperErrPct(loadFixture(t, "queries_sampled.json"))
	if err != nil || !ok || math.Abs(pct-25) > 1e-12 {
		t.Errorf("queries: paperErrPct = %v, %v, %v; want 25, true, nil", pct, ok, err)
	}
	for _, f := range []string{"zoo.json", "cmp_sweep.json"} {
		if _, ok, err := paperErrPct(loadFixture(t, f)); ok || err != nil {
			t.Errorf("%s: paperErrPct ok=%v err=%v; want unvalidated without error", f, ok, err)
		}
	}
}

func TestCIRelHalfwidth(t *testing.T) {
	// 5/100 and 10/|-50| average to 0.125; the zero-mean metric is skipped.
	rel, ok := ciRelHalfwidth(loadFixture(t, "queries_sampled.json"))
	if !ok || math.Abs(rel-0.125) > 1e-12 {
		t.Errorf("ciRelHalfwidth = %v, %v; want 0.125, true", rel, ok)
	}
	if _, ok := ciRelHalfwidth(loadFixture(t, "zoo.json")); ok {
		t.Error("full-detail zoo manifest: want no interval metric")
	}
}

func TestZooMatches(t *testing.T) {
	got, err := zooMatches(loadFixture(t, "zoo.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := zooMatch{Matches: 3, Fingerprint: math.MaxUint64}
	if got["hashjoin"] != want || len(got) != 2 {
		t.Errorf("zooMatches = %+v, want hashjoin %+v among 2", got, want)
	}
	if why := checkZoo(got, map[string]zooMatch{"hashjoin": want}); why != "" {
		t.Errorf("checkZoo on the reported streams: %s", why)
	}
	if why := checkZoo(got, map[string]zooMatch{"bfs": {Matches: 16, Fingerprint: 8}}); why == "" {
		t.Error("checkZoo accepted a wrong fingerprint")
	}
}

func TestReportDigestIgnoresParallelism(t *testing.T) {
	m := &exp.Manifest{Schema: exp.ManifestSchema, Experiment: "zoo", Config: sim.DefaultConfig(), Results: json.RawMessage(`{}`)}
	m.Config.Parallelism = 1
	d1, _, err := reportDigest(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Config.Parallelism = 8
	d8, _, _ := reportDigest(m)
	if d1 != d8 {
		t.Errorf("digest depends on Parallelism: %s vs %s", d1, d8)
	}
	if m.Config.Parallelism != 8 {
		t.Error("reportDigest modified the manifest")
	}
	m.Config.Scale *= 2
	if d, _, _ := reportDigest(m); d == d1 {
		t.Error("digest ignores the configuration")
	}
}

// TestExtractLiveManifests runs tiny versions of the workloads' experiments
// and checks the extraction against the typed results, so the fixtures'
// field names cannot drift from the real manifests.
func TestExtractLiveManifests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range []*workload{
		{name: "zoo", experiment: "zoo", scale: 0.0005, sample: 300},
		{name: "cmp", experiment: "cmp", scale: 1.0 / 512, sample: 300, set: map[string]string{"size": "Small"},
			sweep: []string{"stagger=0,1000"}},
		{name: "queries", experiment: "queries", scale: 0.002, sample: 300, sampling: true},
	} {
		cfg := w.config()
		cfg.SampleWarmup, cfg.SamplePeriod = 8, 16
		cfg.SampleWindows = 4
		if !w.sampling {
			cfg.SampleWindows = 0
		}
		out, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m, err := out.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := reportDigest(m)
		if err != nil {
			t.Fatal(err)
		}
		var it iteration
		if err := it.extract(data); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if want := typedCycles(t, out.Result); it.SimCycles != want {
			t.Errorf("%s: simCycles = %d, typed results give %d", w.name, it.SimCycles, want)
		}
		if (it.PaperErrPct != nil) != (w.experiment == "queries") {
			t.Errorf("%s: paper_err_pct present = %v", w.name, it.PaperErrPct != nil)
		}
		if (it.CIRelHalfwidth != nil) != w.sampling || it.FPVerified != w.sampling {
			t.Errorf("%s: ci_rel_halfwidth present = %v, fingerprint verified = %v", w.name, it.CIRelHalfwidth != nil, it.FPVerified)
		}
		if w.experiment == "zoo" {
			ref, err := zooReference(w)
			if err != nil {
				t.Fatal(err)
			}
			if why := checkZoo(it.Zoo, ref); why != "" {
				t.Error(why)
			}
		}
	}
}

// typedCycles computes simCycles' total from the experiment's Go result.
func typedCycles(t *testing.T, r exp.Result) uint64 {
	var total uint64
	switch r := r.(type) {
	case *sim.SuiteResult:
		for _, q := range r.Queries {
			for _, w := range []int{1, 2, 4} {
				total += q.WidxRaw[w].TotalCycles
			}
			total += uint64(math.Round((q.OoOCyclesPerTuple + q.InOrderCyclesPerTuple) * float64(q.WidxRaw[1].Tuples)))
		}
	case *sim.ZooExperiment:
		for _, s := range r.Structures {
			for _, p := range s.Points {
				total += p.Raw.TotalCycles
			}
			total += uint64(math.Round(s.OoOCyclesPerTuple * float64(s.Points[0].Raw.Tuples)))
		}
	case *exp.SweepResult:
		for _, run := range r.Runs {
			total += typedCycles(t, run.Result)
		}
	case *sim.CMPExperiment:
		total += r.SystemCycles
		for _, a := range r.Agents {
			total += a.SoloCycles
		}
	default:
		t.Fatalf("no cycle count for %T", r)
	}
	return total
}
