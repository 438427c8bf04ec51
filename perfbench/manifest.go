package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"widx/internal/exp"
)

// The metrics below are read from a run's reproducibility manifest (what
// `experiments -json` prints), decoded into just the fields they need.

type manifestDoc struct {
	Experiment string          `json:"experiment"`
	Sampling   *samplingDoc    `json:"sampling"`
	Results    json.RawMessage `json:"results"`
}

type samplingDoc struct {
	FingerprintVerified bool `json:"fingerprint_verified"`
	Metrics             []struct {
		Name        string  `json:"name"`
		Mean        float64 `json:"mean"`
		CIHalfWidth float64 `json:"ci_half_width"`
	} `json:"metrics"`
}

// offloadDoc is the timing part of a widx.OffloadResult.
type offloadDoc struct {
	Tuples      uint64 `json:"Tuples"`
	TotalCycles uint64 `json:"TotalCycles"`
}

type queriesDoc struct {
	Queries []struct {
		Query struct {
			Name  string `json:"Name"`
			Suite string `json:"Suite"`
			Paper struct {
				IndexSpeedup4W float64 `json:"IndexSpeedup4W"`
			} `json:"Paper"`
		} `json:"Query"`
		OoOCyclesPerTuple     float64               `json:"OoOCyclesPerTuple"`
		InOrderCyclesPerTuple float64               `json:"InOrderCyclesPerTuple"`
		IndexSpeedup          map[string]float64    `json:"IndexSpeedup"`
		WidxRaw               map[string]offloadDoc `json:"WidxRaw"`
	} `json:"Queries"`
}

type zooDoc struct {
	Structures []struct {
		Structure         string  `json:"Structure"`
		Probes            int     `json:"Probes"`
		Matches           int     `json:"Matches"`
		Fingerprint       uint64  `json:"Fingerprint"`
		OoOCyclesPerTuple float64 `json:"OoOCyclesPerTuple"`
		Points            []struct {
			Walkers int        `json:"Walkers"`
			Raw     offloadDoc `json:"Raw"`
		} `json:"Points"`
	} `json:"Structures"`
}

type cmpDoc struct {
	SystemCycles uint64 `json:"SystemCycles"`
	Agents       []struct {
		Tuples     uint64 `json:"Tuples"`
		Cycles     uint64 `json:"Cycles"`
		SoloCycles uint64 `json:"SoloCycles"`
	} `json:"Agents"`
}

// sweepDoc is a sweep's results payload: one entry per grid point.
type sweepDoc struct {
	Runs []struct {
		Results json.RawMessage `json:"results"`
	} `json:"runs"`
}

func decodeManifest(data []byte) (*manifestDoc, error) {
	var m manifestDoc
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding manifest: %w", err)
	}
	return &m, nil
}

// pointResults returns the result payload of every grid point: the whole
// payload for a single run, each run's payload for a sweep.
func (m *manifestDoc) pointResults() ([]json.RawMessage, error) {
	var probe struct {
		Runs json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(m.Results, &probe); err != nil {
		return nil, fmt.Errorf("decoding %s results: %w", m.Experiment, err)
	}
	if probe.Runs == nil {
		return []json.RawMessage{m.Results}, nil
	}
	var sw sweepDoc
	if err := json.Unmarshal(m.Results, &sw); err != nil {
		return nil, fmt.Errorf("decoding %s sweep: %w", m.Experiment, err)
	}
	out := make([]json.RawMessage, len(sw.Runs))
	for i, r := range sw.Runs {
		out[i] = r.Results
	}
	return out, nil
}

// simCycles totals the simulated cycles a run reports: every Widx
// offload's TotalCycles, the baseline cores' cycles (cycles per tuple times
// the tuples of the design point they are compared with), and for CMP runs
// the co-run system cycles plus every agent's solo reference cycles.
func simCycles(m *manifestDoc) (uint64, error) {
	points, err := m.pointResults()
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, raw := range points {
		switch m.Experiment {
		case "queries":
			var d queriesDoc
			if err := json.Unmarshal(raw, &d); err != nil {
				return 0, fmt.Errorf("decoding queries results: %w", err)
			}
			for _, q := range d.Queries {
				var tuples uint64
				for _, w := range sortedKeys(q.WidxRaw) {
					r := q.WidxRaw[w]
					total += r.TotalCycles
					if tuples == 0 {
						tuples = r.Tuples
					}
				}
				total += uint64(math.Round((q.OoOCyclesPerTuple + q.InOrderCyclesPerTuple) * float64(tuples)))
			}
		case "zoo":
			var d zooDoc
			if err := json.Unmarshal(raw, &d); err != nil {
				return 0, fmt.Errorf("decoding zoo results: %w", err)
			}
			for _, s := range d.Structures {
				var tuples uint64
				for _, p := range s.Points {
					total += p.Raw.TotalCycles
					if tuples == 0 {
						tuples = p.Raw.Tuples
					}
				}
				total += uint64(math.Round(s.OoOCyclesPerTuple * float64(tuples)))
			}
		case "cmp":
			var d cmpDoc
			if err := json.Unmarshal(raw, &d); err != nil {
				return 0, fmt.Errorf("decoding cmp results: %w", err)
			}
			total += d.SystemCycles
			for _, a := range d.Agents {
				total += a.SoloCycles
			}
		default:
			return 0, fmt.Errorf("no cycle count for experiment %q", m.Experiment)
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("%s manifest reports no simulated cycles", m.Experiment)
	}
	return total, nil
}

// paperErrPct is the mean absolute relative error, in percent, of every
// simulated query's four-walker indexing speedup against the paper's
// Figure 10 value. ok is false for runs without a paper reference.
func paperErrPct(m *manifestDoc) (pct float64, ok bool, err error) {
	if m.Experiment != "queries" {
		return 0, false, nil
	}
	var d queriesDoc
	if err := json.Unmarshal(m.Results, &d); err != nil {
		return 0, false, fmt.Errorf("decoding queries results: %w", err)
	}
	var sum float64
	var n int
	for _, q := range d.Queries {
		ref := q.Query.Paper.IndexSpeedup4W
		sim, has := q.IndexSpeedup["4"]
		if ref <= 0 || !has {
			continue
		}
		sum += math.Abs(sim-ref) / ref
		n++
	}
	if n == 0 {
		return 0, false, fmt.Errorf("queries manifest has no four-walker speedup with a paper reference")
	}
	return 100 * sum / float64(n), true, nil
}

// ciRelHalfwidth is the mean, over the manifest's sampled metrics, of the
// 95% confidence interval's half-width divided by the estimate's magnitude.
// ok is false for runs that were not sampled.
func ciRelHalfwidth(m *manifestDoc) (rel float64, ok bool) {
	if m.Sampling == nil {
		return 0, false
	}
	var sum float64
	var n int
	for _, x := range m.Sampling.Metrics {
		if x.Mean == 0 {
			continue
		}
		sum += x.CIHalfWidth / math.Abs(x.Mean)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// zooMatch is one zoo structure's reported match stream.
type zooMatch struct {
	Matches     int    `json:"matches"`
	Fingerprint uint64 `json:"fingerprint"`
}

// zooMatches returns the match-stream length and fingerprint every zoo
// structure reports, keyed by structure name.
func zooMatches(m *manifestDoc) (map[string]zooMatch, error) {
	if m.Experiment != "zoo" {
		return nil, nil
	}
	var d zooDoc
	if err := json.Unmarshal(m.Results, &d); err != nil {
		return nil, fmt.Errorf("decoding zoo results: %w", err)
	}
	out := map[string]zooMatch{}
	for _, s := range d.Structures {
		out[s.Structure] = zooMatch{Matches: s.Matches, Fingerprint: s.Fingerprint}
	}
	return out, nil
}

// reportDigest hashes the encoded manifest with its Parallelism echo
// cleared, so runs at any worker count digest alike.
func reportDigest(m *exp.Manifest) (string, []byte, error) {
	cp := *m
	cp.Config.Parallelism = 0
	data, err := cp.Encode()
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), data, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
