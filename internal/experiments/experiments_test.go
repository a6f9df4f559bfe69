package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "fig4c", "tab1",
		"fig8a", "fig8b", "fig9a", "fig9b",
		"fig10ab", "fig10c", "fig10d",
		"fig13", "fig14", "fig15a", "fig15b", "fig16",
		"abl-graph", "abl-prune", "abl-dpp", "abl-attn", "abl-mwu", "abl-loss",
		"fig12", "appc-paths", "disc-finetune",
		"pktlat",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Note("hello %d", 5)
	s := r.String()
	for _, want := range []string{"== x — t ==", "a", "bb", "hello 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

// runExperiment runs a driver at CI scale and sanity-checks the report.
func runExperiment(t *testing.T, id string) *Report {
	t.Helper()
	d, ok := Registry[id]
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	r, err := d(Options{Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("%s: report ID %q", id, r.ID)
	}
	if len(r.Rows) == 0 {
		t.Errorf("%s: empty report", id)
	}
	t.Logf("\n%s", r)
	return r
}

func TestFig4a(t *testing.T)   { runExperiment(t, "fig4a") }
func TestFig4b(t *testing.T)   { runExperiment(t, "fig4b") }
func TestFig4c(t *testing.T)   { runExperiment(t, "fig4c") }
func TestTable1(t *testing.T)  { runExperiment(t, "tab1") }
func TestFig8a(t *testing.T)   { runExperiment(t, "fig8a") }
func TestFig8b(t *testing.T)   { runExperiment(t, "fig8b") }
func TestFig9a(t *testing.T)   { runExperiment(t, "fig9a") }
func TestFig9b(t *testing.T)   { runExperiment(t, "fig9b") }
func TestFig10ab(t *testing.T) { runExperiment(t, "fig10ab") }
func TestFig10c(t *testing.T)  { runExperiment(t, "fig10c") }
func TestFig10d(t *testing.T)  { runExperiment(t, "fig10d") }
func TestFig13(t *testing.T)   { runExperiment(t, "fig13") }
func TestFig14(t *testing.T)   { runExperiment(t, "fig14") }
func TestFig15a(t *testing.T)  { runExperiment(t, "fig15a") }
func TestFig15b(t *testing.T)  { runExperiment(t, "fig15b") }
func TestFig16(t *testing.T)   { runExperiment(t, "fig16") }

// TestRuleOverheadBelowAppendixD checks Appendix D's estimate that rule
// distribution costs under 5% of the ISL capacity of one TE interval.
func TestRuleOverheadBelowAppendixD(t *testing.T) {
	frac, err := ruleOverhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 || frac >= 0.05 {
		t.Errorf("rule overhead fraction = %v, want in (0, 0.05)", frac)
	}
}

func TestAblGraph(t *testing.T) { runExperiment(t, "abl-graph") }
func TestAblPrune(t *testing.T) { runExperiment(t, "abl-prune") }
func TestAblDPP(t *testing.T)   { runExperiment(t, "abl-dpp") }
func TestAblAttn(t *testing.T)  { runExperiment(t, "abl-attn") }
func TestAblMWU(t *testing.T)   { runExperiment(t, "abl-mwu") }

func TestFig12(t *testing.T)        { runExperiment(t, "fig12") }
func TestAppCPaths(t *testing.T)    { runExperiment(t, "appc-paths") }
func TestDiscFineTune(t *testing.T) { runExperiment(t, "disc-finetune") }

func TestAblLoss(t *testing.T) { runExperiment(t, "abl-loss") }

// TestPktLat holds the packet-level experiment to the shape EXPERIMENTS.md
// reports for it: loss ordered SaTE < ECMP-WF < POP, and SaTE delivering
// more packets than ECMP-WF. No run is truncated: the driver fails on a
// truncated run rather than report clipped quantiles.
func TestPktLat(t *testing.T) {
	r := runExperiment(t, "pktlat")
	col := slices.Index(r.Header, "delivered")
	if col < 0 {
		t.Fatalf("no delivered column in %v", r.Header)
	}
	delivered, loss := map[string]int{}, map[string]float64{}
	for _, row := range r.Rows {
		var d, inj int
		if _, err := fmt.Sscanf(row[col], "%d/%d", &d, &inj); err != nil || inj == 0 {
			continue // a scheme that could not run (teal's OOM row)
		}
		delivered[row[0]] = d
		loss[row[0]] = float64(inj-d) / float64(inj) // every packet is delivered or dropped
	}
	for _, s := range []string{"sate", "ecmp-wf", "pop"} {
		if _, ok := loss[s]; !ok {
			t.Fatalf("no %s row in %v", s, r.Rows)
		}
	}
	if !(loss["sate"] < loss["ecmp-wf"] && loss["ecmp-wf"] < loss["pop"]) {
		t.Errorf("loss sate %.4f, ecmp-wf %.4f, pop %.4f: want sate < ecmp-wf < pop",
			loss["sate"], loss["ecmp-wf"], loss["pop"])
	}
	if delivered["sate"] <= delivered["ecmp-wf"] {
		t.Errorf("sate delivered %d packets, ecmp-wf %d: want more", delivered["sate"], delivered["ecmp-wf"])
	}
}
