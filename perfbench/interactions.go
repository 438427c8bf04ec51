package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// interactionsJSON is the interaction map: for every per-layer metric, the
// end-to-end metrics and workloads it should move and the workloads where
// it should not. BENCHMARK.json's fixed schema has no room for it.
//
//go:embed interactions.json
var interactionsJSON []byte

type interaction struct {
	Name  string   `json:"name"`
	Det   bool     `json:"det"`
	Moves []string `json:"moves"`
	On    []string `json:"on"`
	NotOn []string `json:"not_on"`
	How   string   `json:"how"`
}

func loadInteractions() (map[string]interaction, error) {
	var doc struct {
		Metrics []interaction `json:"metrics"`
	}
	if err := json.Unmarshal(interactionsJSON, &doc); err != nil {
		return nil, fmt.Errorf("decoding interactions.json: %w", err)
	}
	out := map[string]interaction{}
	for _, m := range doc.Metrics {
		out[m.Name] = m
	}
	return out, nil
}

// printLayerMetrics prints every per-layer metric with the end-to-end
// metrics it should move.
func printLayerMetrics(ms map[string]metric) {
	imap, err := loadInteractions()
	if err != nil {
		fmt.Println("interactions:", err)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("%s %.6g %s", n, m.Value, m.Unit)
		if in, ok := imap[n]; ok {
			if in.Det {
				line += " [det]"
			}
			if len(in.Moves) > 0 {
				line += fmt.Sprintf(" -> %s on %s", strings.Join(in.Moves, ","), strings.Join(in.On, ","))
			}
			if len(in.NotOn) > 0 && len(in.Moves) > 0 {
				line += fmt.Sprintf("; not on %s", strings.Join(in.NotOn, ","))
			}
		}
		fmt.Println(line)
	}
}
