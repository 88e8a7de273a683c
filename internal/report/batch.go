package report

import (
	"strings"

	"repro/internal/workloads"
)

// BatchReport is the merged report of a batch analysis, the one text
// `racer suite`, `racer analyze-dir` and `racer serve` print: Summary,
// Table 1, the predicted and static sections when those stages were
// requested, every race in full when Verbose, and the quarantine
// section when any input was excluded.
type BatchReport struct {
	Run *workloads.SuiteRun
	// Predict and Static say the stages were requested. A requested
	// stage always renders its section — "(stage not run)" when no
	// input reached it, e.g. because every input was quarantined.
	Predict bool
	Static  bool
	Verbose bool
}

// Render produces the plain-text report.
func (r BatchReport) Render() string {
	var b strings.Builder
	merged := r.Run.Merged
	b.WriteString(Summary(merged, SuiteTruth))
	b.WriteString("\n")
	b.WriteString(BuildTable1(merged, SuiteTruth).Render())
	if r.Predict {
		b.WriteString("\n")
		b.WriteString(PredictedSection{Suite: r.Run.Predict}.Render())
	}
	if r.Static {
		b.WriteString("\n")
		b.WriteString(StaticSection{Suite: r.Run.Static}.Render())
	}
	if r.Verbose {
		b.WriteString("\n")
		for _, race := range merged.Races {
			b.WriteString(RaceReport(race, SuiteTruth))
		}
	}
	if len(r.Run.Quarantined) > 0 {
		b.WriteString("\n")
		b.WriteString(QuarantineSection(r.Run.Quarantined))
	}
	return b.String()
}
