package workloads

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/record"
)

// TestEachTemplateInIsolation runs every template in its own one-template
// scenario across several seeds and checks that the races it produces
// land in the Table-1 group its metadata declares. This localizes census
// regressions to a single template instead of the merged suite.
func TestEachTemplateInIsolation(t *testing.T) {
	for _, tm := range All() {
		tm := tm
		t.Run(tm.Name, func(t *testing.T) {
			var parts []*classify.Classification
			for seed := int64(1); seed <= 8; seed++ {
				s := Scenario{Name: "iso", Seed: 100*seed + 7, Templates: []Template{tm}}
				prog, err := s.Program()
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Analyze(prog, s.Config(), record.OnlineConfig{}, classify.Options{Scenario: s.Name, Seed: s.Seed})
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, res.Classification)
			}
			merged := classify.Merge(parts...)
			if len(merged.Races) == 0 {
				t.Fatalf("template %s produced no races over 8 seeds", tm.Name)
			}
			if len(merged.Races) != tm.Races {
				t.Errorf("template %s produced %d unique races, declares %d",
					tm.Name, len(merged.Races), tm.Races)
			}
			for _, r := range merged.Races {
				if got := TemplateOfSite(r.Sites.A); got == nil || got.Name != tm.Name {
					t.Errorf("race %v does not belong to template %s", r.Sites, tm.Name)
				}
				if r.Group != tm.ExpectGroup {
					t.Errorf("race %v: group %v, template %s expects %v (nsc=%d sc=%d rf=%d over %d instances)",
						r.Sites, r.Group, tm.Name, tm.ExpectGroup, r.NSC, r.SC, r.RF, r.Total)
				}
			}
		})
	}
}
