package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"widx/internal/structures"
	"widx/internal/system"
	"widx/internal/vm"
)

// smallOffloads builds n small hash-join structures into one address space.
func smallOffloads(t *testing.T, n int) (*vm.AddressSpace, []offload) {
	t.Helper()
	as := vm.New()
	offs := make([]offload, n)
	for i := range offs {
		inst, err := structures.Build(as, structures.BuildConfig{
			Kind: structures.HashJoin, Keys: 512, Probes: 400, Seed: uint64(7 + i), Name: "t" + string(rune('a'+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		matches, _ := inst.Reference()
		offs[i] = offload{inst: inst, matches: matches,
			resultBase: as.AllocAligned("t.results"+string(rune('a'+i)), uint64(len(matches))*8+64)}
	}
	return as, offs
}

// TestTracingAgentLeavesResultsIdentical runs the same offloads untraced
// and wrapped in tracingAgents, solo and co-run, and requires every
// OffloadResult to encode byte for byte alike.
func TestTracingAgentLeavesResultsIdentical(t *testing.T) {
	as, offs := smallOffloads(t, 2)
	for _, coRun := range []bool{false, true} {
		plain, err := widxGroups(as.Clone(), offs, coRun, func(agents []system.Agent) error {
			return system.Run(agents...)
		})
		if err != nil {
			t.Fatal(err)
		}
		var grants uint64
		traced, err := widxGroups(as.Clone(), offs, coRun, func(agents []system.Agent) error {
			tas := make([]*tracingAgent, len(agents))
			for i := range agents {
				tas[i] = &tracingAgent{Agent: agents[i]}
				agents[i] = tas[i]
			}
			err := system.Run(agents...)
			for _, ta := range tas {
				grants += ta.grant.calls
				if ta.settle.calls == 0 {
					t.Error("tracing agent saw no Settle calls")
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if grants == 0 {
			t.Error("tracing agents saw no GrantMem calls")
		}
		for i := range plain {
			a, _ := json.Marshal(plain[i])
			b, _ := json.Marshal(traced[i])
			if string(a) != string(b) {
				t.Errorf("coRun=%v offload %d: traced result differs from the untraced one", coRun, i)
			}
			if structures.Fingerprint(traced[i].Matches) != structures.Fingerprint(offs[i].matches) {
				t.Errorf("coRun=%v offload %d: match stream differs from the software reference", coRun, i)
			}
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	time.Sleep(2 * time.Millisecond)
	r.end(inner)
	r.aggregate("calls", callStats{calls: 5, dur: time.Millisecond})
	total := r.end(outer)
	if r.spans[inner-1].Parent != outer || r.spans[2].Parent != outer {
		t.Fatalf("children not parented to the outer span: %+v", r.spans)
	}
	want := total - r.spans[inner-1].Dur - time.Millisecond
	if got := r.selfTime(outer); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := r.total("calls"); got != time.Millisecond {
		t.Errorf("total(calls) = %v", got)
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced measurement on a
// tiny zoo workload and checks that it reports exactly the per-layer
// metrics BENCHMARK.json declares, each covered by the interaction map.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	w := &workload{name: "tiny", experiment: "zoo", scale: 0.0002, sample: 200,
		setup: setupZoo, traced: tracedZoo}
	res, err := runTraced(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	bench := loadBenchmark(t)
	imap, err := loadInteractions()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range bench.PerLayer {
		declared = append(declared, m.Name)
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("traced run does not report %s", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if _, ok := imap[m.Name]; !ok {
			t.Errorf("interactions.json has no entry for %s", m.Name)
		}
	}
	if len(res.Metrics) != len(declared) || len(imap) != len(declared) {
		t.Errorf("traced run reports %d metrics, interactions.json maps %d, BENCHMARK.json declares %d",
			len(res.Metrics), len(imap), len(declared))
	}
	workloadNames := map[string]bool{}
	for _, w := range bench.Workloads {
		workloadNames[w.Name] = true
	}
	e2e := map[string]bool{"ci_rel_halfwidth": true} // printed, not gated
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	for _, in := range imap {
		for _, m := range in.Moves {
			if !e2e[m] {
				t.Errorf("interactions.json: %s moves unknown end-to-end metric %s", in.Name, m)
			}
		}
		for _, w := range append(append([]string(nil), in.On...), in.NotOn...) {
			if !workloadNames[w] {
				t.Errorf("interactions.json: %s names unknown workload %s", in.Name, w)
			}
		}
	}
}

// TestWorkloadsMatchBenchmark checks that BENCHMARK.json lists exactly the
// benchmark's workloads.
func TestWorkloadsMatchBenchmark(t *testing.T) {
	var names, declared []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	for _, w := range loadBenchmark(t).Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("workloads %v, BENCHMARK.json %v", names, declared)
		}
	}
}

type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkDoc
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}
