package workloads

import (
	"errors"
	"testing"

	"repro/internal/record"
)

// TestAnalyzeBatchSlots: AnalyzeBatch keeps one audit envelope per input
// slot (a failed slot included, marked quarantined in place), reports the
// failed slot by its index and label, and pools the static stage by
// Scenario.Name, so two seeds of one program share a lint report.
func TestAnalyzeBatchSlots(t *testing.T) {
	var items []BatchItem
	for _, sr := range SeedRuns(2)[:2] {
		prog, err := sr.Scenario.Program()
		if err != nil {
			t.Fatal(err)
		}
		log, _, _, err := record.Run(prog, sr.Scenario.Config(), record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Label: sr.Scenario.Name, Scenario: sr.Scenario, Log: log})
	}
	failed := errors.New("decode: truncated")
	items = []BatchItem{items[0], {Label: "broken.rlog", Err: failed}, items[1]}

	run := AnalyzeBatch(items, SuiteOptions{Jobs: 2, Audit: true, Static: true})
	if len(run.Scenarios) != 2 {
		t.Fatalf("analyzed %d executions, want 2", len(run.Scenarios))
	}
	if len(run.Quarantined) != 1 || run.Quarantined[0].Index != 1 || run.Quarantined[0].Label != "broken.rlog" {
		t.Fatalf("quarantined = %v, want slot 1 broken.rlog", run.Quarantined)
	}
	ex := run.Audit.Executions
	if len(ex) != 3 {
		t.Fatalf("audit has %d executions, want one per slot (3)", len(ex))
	}
	if ex[1].Quarantined != failed.Error() || ex[1].LogSHA256 != "" {
		t.Errorf("failed slot envelope = %+v", ex[1])
	}
	for _, i := range []int{0, 2} {
		if ex[i].Quarantined != "" || ex[i].LogSHA256 == "" || len(ex[i].Races) == 0 {
			t.Errorf("slot %d envelope incomplete: quarantined=%q sha=%q races=%d",
				i, ex[i].Quarantined, ex[i].LogSHA256, len(ex[i].Races))
		}
	}
	if n := len(run.Static.Scenarios); n != 1 || run.Static.Scenarios[0].Name != items[0].Scenario.Name {
		t.Fatalf("static groups = %d, want one for %s", n, items[0].Scenario.Name)
	}
	if run.Static.Missed != 0 {
		t.Errorf("static stage missed %d dynamic races", run.Static.Missed)
	}
}
