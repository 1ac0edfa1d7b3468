package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldens.go holds the expected outputs recorded from the seed program
// (`perfbench record`): each experiment's rendered text byte for byte,
// each simulation's result digest, and the counts every repetition
// must reproduce exactly.

// countMetrics are the metrics that must repeat exactly. They include
// the cold-run guard: runner.jobs_cached, runner.cache_hit_frac and
// dist.batches read higher when results come from a warm cache or a
// rerun against warm workers.
var countMetrics = []string{
	"pipeline.cycles", "pipeline.retired_uops",
	"workload.builds", "workload.next_uops", "workload.wrong_uops",
	"predictor.calls", "confidence.calls",
	"runner.sweeps", "runner.jobs_fresh", "runner.jobs_cached", "runner.jobs_functional",
	"runner.cache_hit_frac", "core.plan_jobs", "dist.batches",
}

type goldens struct {
	dir string
	// digests maps a golden key (goldenKey) to operation → digest.
	digests map[string]map[string]string
	// counts maps a golden key to metric → exact value.
	counts map[string]map[string]float64
}

// goldenKey names a workload's inputs: sim-long has one set per
// segment, the others have fixed inputs.
func goldenKey(workload string, seg int) string {
	if workload == "sim-long" {
		return fmt.Sprintf("%s/%d", workload, seg)
	}
	return workload
}

// experimentFile is the golden file of an experiment's rendered output.
func experimentFile(dir, metric string) string {
	name := strings.TrimSuffix(strings.TrimPrefix(metric, "core."), "_s")
	return filepath.Join(dir, "experiments", name+".txt")
}

func loadGoldens(dir string) (*goldens, error) {
	g := &goldens{dir: dir}
	if err := readJSON(filepath.Join(dir, "digests.json"), &g.digests); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "counts.json"), &g.counts); err != nil {
		return nil, err
	}
	return g, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("goldens: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("goldens: %s: %w", path, err)
	}
	return nil
}

// outputs returns the expected output of every operation of a workload.
// A missing golden reads as empty and fails the comparison.
func (g *goldens) outputs(workload string, seg int) map[string]string {
	switch workload {
	case "paper-quick", "fleet-quick":
		exps := paperExperiments
		if workload == "fleet-quick" {
			exps = fidelityExperiments
		}
		out := map[string]string{}
		for _, e := range exps {
			b, err := os.ReadFile(experimentFile(g.dir, e.metric))
			if err == nil {
				out[e.metric] = string(b)
			}
		}
		return out
	}
	return g.digests[goldenKey(workload, seg)]
}

// checkCounts compares the counts a repetition measured with the
// recorded ones and describes each difference.
func (g *goldens) checkCounts(workload string, seg int, m map[string]float64) []string {
	want, ok := g.counts[goldenKey(workload, seg)]
	if !ok {
		return []string{"no recorded counts for " + goldenKey(workload, seg)}
	}
	var bad []string
	for _, name := range countMetrics {
		got, measured := m[name]
		w, recorded := want[name]
		if measured && recorded && got != w {
			bad = append(bad, fmt.Sprintf("%s = %v, recorded %v", name, got, w))
		}
	}
	sort.Strings(bad)
	return bad
}

// counts extracts the exact counts from a repetition's metrics.
func counts(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, name := range countMetrics {
		if v, ok := m[name]; ok {
			out[name] = v
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
