package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func names(exps []experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.name)
	}
	return out
}

// TestExperimentGroups pins what each group runs, in order, and which
// results land in run manifests: the fidelity gate, the scorecard and
// the benchmark all depend on these lists.
func TestExperimentGroups(t *testing.T) {
	for group, want := range map[string][]string{
		"all":      {"table2", "table3", "table4", "table5", "table6", "fig4/5", "fig6/7", "fig8", "fig9", "latency"},
		"fidelity": {"table2", "table3", "table4", "fig8"},
		"extras":   {"ablate-signal", "ablate-reversal", "ablate-site", "ablate-threshold", "ablate-history", "ablate-jrs", "variability"},
	} {
		if got := names(selected(group)); !slices.Equal(got, want) {
			t.Errorf("-exp %s runs %v, want %v", group, got, want)
		}
	}
	var recorded []string
	for _, e := range experiments {
		if e.record != "" {
			recorded = append(recorded, e.record)
		}
	}
	want := []string{"table2", "table3", "table4", "table5", "table6", "density-cic", "density-tnt", "fig8", "fig9", "latency"}
	if !slices.Equal(recorded, want) {
		t.Errorf("manifest records %v, want %v", recorded, want)
	}
}

func TestEverySelectorResolves(t *testing.T) {
	for _, e := range experiments {
		for _, sel := range append([]string{e.name}, e.aliases...) {
			if got := names(selected(sel)); !slices.Equal(got, []string{e.name}) {
				t.Errorf("-exp %s runs %v, want [%s]", sel, got, e.name)
			}
		}
	}
	if got := selected("table7"); len(got) != 0 {
		t.Errorf("-exp table7 runs %v, want nothing", names(got))
	}
}

// TestPackageDocListsSelectors keeps the hand-written package doc in
// step with the table the -exp help and error messages are built from.
func TestPackageDocListsSelectors(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, sel := range selectors() {
		if !strings.Contains(doc, " "+sel) {
			t.Errorf("package doc does not mention -exp %s", sel)
		}
	}
}
