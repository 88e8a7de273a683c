package report

import (
	"fmt"
	"strings"

	"repro/internal/static"
	"repro/internal/workloads"
)

// StaticSection renders the static-vs-dynamic cross-validation of a suite
// run: per scenario, how the ahead-of-execution candidates fared against
// the happens-before races and replay verdicts — the static analogue of
// the paper's lockset-vs-HB comparison benchmark.
type StaticSection struct {
	Suite *workloads.SuiteStatic
}

// Render produces the plain-text section.
func (s StaticSection) Render() string {
	var b strings.Builder
	b.WriteString("Static cross-validation (lint vs dynamic HB + replay)\n")
	if s.Suite == nil {
		b.WriteString("  (static stage not run)\n")
		return b.String()
	}
	b.WriteString("  scenario          cand  matched  refuted  unmatched  missed\n")
	for _, sc := range s.Suite.Scenarios {
		if sc.Cross == nil {
			fmt.Fprintf(&b, "  %-16s  (quarantined)\n", sc.Name)
			continue
		}
		c := sc.Cross
		fmt.Fprintf(&b, "  %-16s  %4d  %7d  %7d  %9d  %6d\n",
			sc.Name, len(c.Candidates), c.Matched, c.Refuted, c.Unmatched, len(c.Missed))
	}
	tot := s.Suite
	fmt.Fprintf(&b, "  total: %d matched, %d refuted, %d unmatched, %d missed\n",
		tot.Matched, tot.Refuted, tot.Unmatched, tot.Missed)
	den := tot.Matched + tot.Refuted
	if den > 0 {
		fmt.Fprintf(&b, "  precision (vs dynamically tested): %.2f\n", float64(tot.Matched)/float64(den))
	}
	denR := tot.Matched + tot.Missed
	if denR > 0 {
		fmt.Fprintf(&b, "  recall (dynamic races predicted):  %.2f\n", float64(tot.Matched)/float64(denR))
	}
	if tot.HasPredicted {
		// The three-engine matrix: the same static candidates judged
		// against the prediction engine's race set (observed races plus
		// feasible reorderings). A refuted->matched move between the two
		// rows is a static positive the observed schedule alone would
		// have dismissed.
		fmt.Fprintf(&b, "  vs prediction engine: %d matched, %d refuted, %d unmatched, %d missed\n",
			tot.PredMatched, tot.PredRefuted, tot.PredUnmatched, tot.PredMissed)
		if den := tot.PredMatched + tot.PredRefuted; den > 0 {
			fmt.Fprintf(&b, "  precision (vs predicted races):    %.2f\n", float64(tot.PredMatched)/float64(den))
		}
		if den := tot.PredMatched + tot.PredMissed; den > 0 {
			fmt.Fprintf(&b, "  recall (predicted races flagged):  %.2f\n", float64(tot.PredMatched)/float64(den))
		}
	}
	if tot.Missed > 0 {
		b.WriteString("  missed dynamic races (static false negatives):\n")
		for _, sc := range s.Suite.Scenarios {
			if sc.Cross == nil {
				continue
			}
			for _, m := range sc.Cross.Missed {
				fmt.Fprintf(&b, "    %s: %s [%s]\n", sc.Name, m.Sites, m.Verdict)
			}
		}
	}
	// Matched candidates with a benign-idiom hint: the static pass's
	// Table 2 preview, checked against the classifier's verdict. The same
	// race appearing in several scenarios renders once.
	seen := map[string]bool{}
	var hinted []string
	for _, sc := range s.Suite.Scenarios {
		if sc.Cross == nil {
			continue
		}
		for _, cc := range sc.Cross.Candidates {
			if cc.State != static.MatchMatched || cc.Hint == static.HintNone {
				continue
			}
			line := fmt.Sprintf("    %s <-> %s  hint=%s verdict=%s",
				cc.SiteA, cc.SiteB, cc.Hint, cc.Verdict)
			if !seen[line] {
				seen[line] = true
				hinted = append(hinted, line)
			}
		}
	}
	if len(hinted) > 0 {
		b.WriteString("  benign-idiom hints on matched races:\n")
		for _, line := range hinted {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
