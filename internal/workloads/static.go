package workloads

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/static"
)

// ScenarioStatic is the static analysis and cross-validation of one base
// scenario (all seeds of that scenario contribute dynamic evidence).
type ScenarioStatic struct {
	Name   string
	Report *static.Report
	Cross  *static.CrossResult
}

// SuiteStatic is the static cross-validation stage of a suite run.
type SuiteStatic struct {
	Scenarios []ScenarioStatic
	Matched   int
	Refuted   int
	Unmatched int
	Missed    int

	// Predicted-engine totals (meaningful only when HasPredicted: the
	// prediction stage supplied evidence for at least one scenario).
	HasPredicted  bool
	PredMatched   int
	PredRefuted   int
	PredUnmatched int
	PredMissed    int
}

// crossValidateSuite runs the static analyzer over every program of the
// run — one per Scenario.Name, the grouping key AnalyzeBatch's inputs
// carry — and joins each report against the dynamic evidence from all
// of that group's executions. The per-group work fans out across the
// same worker-pool discipline as the offline analysis: forked registries
// adopted in input order keep the metrics and the rendered section
// byte-identical at every worker count.
func crossValidateSuite(run *SuiteRun, jobs int, reg *obs.Registry) *SuiteStatic {
	sp := reg.StartSpan("static")
	defer sp.End()

	// Group each base scenario's results; seeds of one scenario share a
	// name and merge into one evidence pool.
	byName := map[string][]*core.Result{}
	var order []string
	for _, sr := range run.Scenarios {
		if _, ok := byName[sr.Scenario.Name]; !ok {
			order = append(order, sr.Scenario.Name)
		}
		byName[sr.Scenario.Name] = append(byName[sr.Scenario.Name], sr.Result)
	}

	out := &SuiteStatic{Scenarios: make([]ScenarioStatic, len(order))}
	forks := make([]*obs.Registry, len(order))
	pool := sched.NewPool(sched.Normalize(jobs, sched.DefaultJobs()), reg)
	for i, name := range order {
		i, name := i, name
		fork := reg.Fork()
		forks[i] = fork
		pool.Submit(func() {
			results := byName[name]
			prog := results[0].Prog
			rep := static.Analyze(prog, fork)
			cross := static.CrossValidate(rep, core.CollectEvidence(results), fork)
			out.Scenarios[i] = ScenarioStatic{Name: name, Report: rep, Cross: cross}
		})
	}
	pool.Wait()
	for _, fork := range forks {
		reg.Adopt(fork)
	}
	for _, sc := range out.Scenarios {
		if sc.Cross == nil {
			continue // scenario fully quarantined or its task panicked
		}
		out.Matched += sc.Cross.Matched
		out.Refuted += sc.Cross.Refuted
		out.Unmatched += sc.Cross.Unmatched
		out.Missed += len(sc.Cross.Missed)
		if sc.Cross.HasPredicted {
			out.HasPredicted = true
			out.PredMatched += sc.Cross.PredMatched
			out.PredRefuted += sc.Cross.PredRefuted
			out.PredUnmatched += sc.Cross.PredUnmatched
			out.PredMissed += len(sc.Cross.PredMissed)
		}
	}
	return out
}
