package report

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/workloads"
)

// TestBatchReportRequestedStagesAlwaysRender: a requested stage renders
// its section even when no input reached it, sections keep their order,
// and unrequested stages render nothing.
func TestBatchReportRequestedStagesAlwaysRender(t *testing.T) {
	run := &workloads.SuiteRun{
		Merged:      classify.Merge(),
		Quarantined: []core.Quarantined{{Index: 0, Label: "exec01-0.rlog", Err: errors.New("truncated")}},
	}
	out := BatchReport{Run: run, Predict: true, Static: true}.Render()
	order := []string{
		"unique races: 0",
		"Table 1",
		"Predicted races",
		"(prediction stage not run)",
		"Static cross-validation",
		"(static stage not run)",
		"quarantined: 1 input(s)",
		"exec01-0.rlog: truncated",
	}
	at := 0
	for _, want := range order {
		i := strings.Index(out[at:], want)
		if i < 0 {
			t.Fatalf("report missing %q after byte %d:\n%s", want, at, out)
		}
		at += i + len(want)
	}

	bare := BatchReport{Run: &workloads.SuiteRun{Merged: classify.Merge()}}.Render()
	for _, absent := range []string{"Predicted races", "Static cross-validation", "quarantined"} {
		if strings.Contains(bare, absent) {
			t.Errorf("unrequested section %q rendered:\n%s", absent, bare)
		}
	}
}
