package core

import (
	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/static"
)

// CollectEvidence condenses analyzed executions of one program into the
// dynamic evidence the static cross-validator joins against: every site
// that executed in any run, and every happens-before race with its
// classifier verdict. Results from different seeds of the same program
// merge; a race seen under any seed counts, and a potentially-harmful
// verdict from any seed outranks a benign one (same stickiness the
// classifier's own Merge applies).
func CollectEvidence(results []*Result) static.DynamicEvidence {
	ev := static.DynamicEvidence{
		ObservedSites: map[string]bool{},
		Races:         map[hb.SitePair]string{},
	}
	harmful := classify.PotentiallyHarmful.String()
	record := func(sites hb.SitePair, verdict string) {
		if prev, ok := ev.Races[sites]; !ok || (prev != harmful && verdict == harmful) {
			ev.Races[sites] = verdict
		}
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Exec != nil {
			sites := hb.Sites(r.Exec.Prog)
			for _, region := range r.Exec.Regions {
				for _, acc := range region.Accesses {
					ev.ObservedSites[sites.Site(acc.PC)] = true
				}
			}
		} else {
			// The online race-free fast path skips the replay; the sites
			// it observed during recording stand in for the replay's.
			for _, site := range r.ObservedSites {
				ev.ObservedSites[site] = true
			}
		}
		if r.Classification != nil {
			for _, rr := range r.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		if r.Races != nil {
			for _, race := range r.Races.Races {
				record(race.Sites, "unclassified")
			}
		}
	}
	collectPredicted(&ev, results)
	return ev
}

// collectPredicted fills ev.Predicted — the prediction engine's race
// set — from any result that ran the prediction stage. Prediction
// subsumes observation by construction, so the map holds both the
// observed races (with their verdicts) and the predicted-new ones
// (with the second classification pass's verdicts), under the same
// harmful-outranks-benign stickiness as the observed map.
func collectPredicted(ev *static.DynamicEvidence, results []*Result) {
	harmful := classify.PotentiallyHarmful.String()
	record := func(sites hb.SitePair, verdict string) {
		if prev, ok := ev.Predicted[sites]; !ok || (prev != harmful && verdict == harmful) {
			ev.Predicted[sites] = verdict
		}
	}
	for _, r := range results {
		if r == nil || r.Predicted == nil {
			continue
		}
		if ev.Predicted == nil {
			ev.Predicted = map[hb.SitePair]string{}
		}
		if r.Classification != nil {
			for _, rr := range r.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		if r.Predicted.Classification != nil {
			for _, rr := range r.Predicted.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		for _, c := range r.Predicted.Report.Candidates {
			record(c.Sites, "unclassified")
		}
	}
}
