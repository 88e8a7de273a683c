package workloads

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ScenarioRun pairs a scenario with its full analysis.
type ScenarioRun struct {
	Scenario Scenario
	Result   *core.Result
}

// SuiteRun is the analysis of a batch: the whole 18-execution suite, or
// any set of recorded executions handed to AnalyzeBatch.
type SuiteRun struct {
	Scenarios []ScenarioRun
	Merged    *classify.Classification
	// Quarantined lists the input slots that failed — a program that
	// would not build, a recording that died, a file that would not
	// decode, a log that would not replay, or an analysis that panicked. The run completes with the
	// healthy scenarios; quarantined items carry their label and error
	// for the report's quarantine section.
	Quarantined []core.Quarantined
	// Static is the static cross-validation stage (nil unless
	// SuiteOptions.Static was set): per-scenario lint reports joined
	// against the dynamic evidence above.
	Static *SuiteStatic
	// Audit is the verdict-provenance trail (nil unless
	// SuiteOptions.Audit was set): one audit.Execution per input slot,
	// in input order, quarantined slots included. The file is a
	// deterministic function of the inputs — byte-identical at every
	// Jobs count.
	Audit *audit.File
	// Predict is the prediction stage's aggregation (nil unless
	// SuiteOptions.Predict was set): per-execution candidate counts and
	// the merged classification of predicted-new races.
	Predict *SuitePredict
}

// SuiteOptions configures a suite analysis.
type SuiteOptions struct {
	// DB, when non-nil, suppresses races a developer already marked
	// benign.
	DB *classify.DB
	// Seeds is the number of scheduler seeds per scenario (the base
	// seed plus fixed offsets); values below 1 mean 1.
	Seeds int
	// Jobs bounds the worker pool for the offline half (replay, detect,
	// classify). Values below 1 mean GOMAXPROCS; 1 runs serially. The
	// merged output is byte-identical at every worker count.
	Jobs int
	// Registry, when non-nil, receives pipeline metrics: the merged
	// "suite/native|record|replay|detect|classify" span ladder, every
	// stage's counters, and the pool's sched.* metrics. Each scenario is
	// then also run once on a bare machine (no observer) under the
	// "native" span — the §5.1 baseline the overhead ladder is measured
	// against. Nil is off.
	Registry *obs.Registry
	// Static adds the static cross-validation stage: every base scenario
	// is lint-analyzed ahead of execution and its candidates joined
	// against the dynamic races and verdicts (SuiteRun.Static).
	Static bool
	// NoMemo disables the dual-order replay cache for the offline half.
	// The default (memoization on, one cache shared across the batch)
	// produces byte-identical suite output; NoMemo exists for
	// measurement and the equivalence tests.
	NoMemo bool
	// Audit assembles the verdict-provenance trail into SuiteRun.Audit:
	// per execution, the input log's content hash and per-race replay
	// evidence (live-in fingerprints, both orders' outcomes, canonical
	// cache attribution).
	Audit bool
	// Online attaches the incremental race detector to every recording.
	// A race-free online verdict lets the offline half skip that log's
	// replay+detect+classify pass entirely; any raced (or stopped)
	// recording takes the full offline pass, which remains the source of
	// truth. The suite report is byte-identical with Online on and off.
	Online bool
	// StopOnRace (with Online) ends each recording at the first
	// confirmed race. The truncated log still replays and classifies —
	// this trades instance coverage for recording time, so it is a
	// monitoring knob, not a default.
	StopOnRace bool
	// Predict adds the prediction stage to every analyzed execution:
	// feasible reorderings of the recorded schedule that would race are
	// proposed, classified by the same dual-order replay, and aggregated
	// into SuiteRun.Predict. Predict disables the online race-free fast
	// path — a race-free observed interleaving is exactly where
	// prediction has work to do.
	Predict bool
	// PredictWindow bounds the prediction solver's region-schedule
	// search distance (0 = the predict package default).
	PredictWindow int
}

// RunSuite records, replays, detects, and classifies every scenario, then
// merges the per-execution classifications into the cross-execution
// per-race verdicts of §5.2.1. db, when non-nil, suppresses races a
// developer already marked benign.
func RunSuite(db *classify.DB) (*SuiteRun, error) {
	return RunSuiteOpts(SuiteOptions{DB: db})
}

// RunSuiteOpts is the suite driver every other entry point delegates
// to. Recording is the online half of the pipeline and stays serial —
// the paper's premise is that the production run only pays for logging —
// while the offline analysis of every scenario × seed fans out across
// opts.Jobs workers with deterministic, input-order merging: the report,
// the merged classification, and the stage counters are identical at
// every worker count.
//
// The run has quarantine semantics: a scenario×seed that fails at any
// stage is skipped with its error recorded in SuiteRun.Quarantined (and
// counted on robust.quarantined), and the rest of the suite completes.
// The error return is reserved for failures that leave nothing to
// report.
func RunSuiteOpts(opts SuiteOptions) (*SuiteRun, error) {
	reg := opts.Registry
	suite := reg.StartSpan("suite")
	defer suite.End()

	// Online half: record every scenario × seed serially, keeping the
	// native baseline next to each recording as before. A recording
	// that fails — or panics — quarantines its scenario×seed slot.
	runs := SeedRuns(opts.Seeds)
	items := make([]BatchItem, len(runs))
	for slot, sr := range runs {
		s := sr.Scenario
		label := s.Name
		if opts.Seeds > 1 {
			label = fmt.Sprintf("%s#%d", s.Name, sr.K)
		}
		item := BatchItem{Label: label, Scenario: s}
		item.Err = sched.Guard(reg, func() error {
			prog, err := s.Program()
			if err != nil {
				return fmt.Errorf("program: %w", err)
			}
			if reg != nil {
				if err := runNative(prog, s.Config(), reg); err != nil {
					return fmt.Errorf("native baseline: %w", err)
				}
			}
			oc := record.OnlineConfig{Detect: opts.Online, StopOnFirstRace: opts.StopOnRace}
			item.Log, item.Machine, _, err = record.Run(prog, s.Config(), oc, reg)
			if err != nil {
				return fmt.Errorf("record: %w", err)
			}
			return nil
		})
		if item.Err != nil {
			reg.Counter("robust.quarantined").Inc()
			reg.EmitLabeled("quarantine", label, uint64(slot))
			reg.Logger().Warn("recording quarantined",
				"slot", slot, "scenario", label, "err", item.Err.Error())
		}
		items[slot] = item
	}
	return AnalyzeBatch(items, opts), nil
}

// SeedRun is one entry of the suite's scenario × seed work list: the
// scenario scheduled under its K-th seed.
type SeedRun struct {
	Scenario Scenario
	K        int
}

// SeedRuns expands the suite into its scenario × seed work list, in
// suite order: every scenario seeds times (values below 1 mean 1), the
// K-th copy scheduled under the base seed plus 7777·K.
func SeedRuns(seeds int) []SeedRun {
	seeds = max(seeds, 1)
	var runs []SeedRun
	for _, base := range Scenarios() {
		for k := 0; k < seeds; k++ {
			s := base
			s.Seed = base.Seed + int64(7777*k)
			runs = append(runs, SeedRun{Scenario: s, K: k})
		}
	}
	return runs
}

// BatchItem is one input slot of AnalyzeBatch: a recorded execution, or
// the error that kept it from being one.
type BatchItem struct {
	// Label names the slot in the report, the quarantine section and
	// the audit trail ("exec01#1", "exec01-1.rlog").
	Label string
	// Scenario carries the slot's seed and, in Name, its static
	// grouping key: slots sharing a name are executions of one program
	// and pool their dynamic evidence against one lint report.
	Scenario Scenario
	Log      *trace.Log
	// Machine, when set, rides along into the slot's core.Result.
	Machine *machine.Result
	// Err quarantines the slot: its recording or decode failed. The
	// caller has already counted and logged the failure.
	Err error
}

// AnalyzeBatch is the offline half every batch entry point shares —
// the live suite, a directory of recorded logs, and serve's merged
// report all end here. It replays, detects and classifies every healthy
// slot across opts.Jobs workers, merges the verdicts across executions,
// and adds the stages opts requests: the audit trail (one envelope per
// slot, quarantined slots included), the prediction aggregate, and the
// static cross-validation grouped by Scenario.Name. Output is
// byte-identical at every worker count.
func AnalyzeBatch(items []BatchItem, opts SuiteOptions) *SuiteRun {
	reg := opts.Registry
	run := &SuiteRun{}
	// Audit envelopes, one per slot; envelopes[i] is the one of the
	// i-th healthy slot (nil with Audit off), and classify fills its
	// Races through the pointer.
	var audits, envelopes []*audit.Execution
	var healthy []BatchItem
	var logs []*trace.Log
	for slot, it := range items {
		var ae *audit.Execution
		if opts.Audit {
			ae = &audit.Execution{Scenario: it.Label, Seed: it.Scenario.Seed}
			audits = append(audits, ae)
		}
		if it.Err != nil {
			run.Quarantined = append(run.Quarantined, core.Quarantined{Index: slot, Label: it.Label, Err: it.Err})
			if ae != nil {
				ae.Quarantined = it.Err.Error()
			}
			continue
		}
		if ae != nil {
			ae.LogSHA256 = core.LogDigest(it.Log)
		}
		healthy = append(healthy, it)
		envelopes = append(envelopes, ae)
		logs = append(logs, it.Log)
	}

	results, quarantined := core.AnalyzeLogs(logs, func(i int) classify.Options {
		return classify.Options{
			Scenario:      healthy[i].Label,
			Seed:          healthy[i].Scenario.Seed,
			DB:            opts.DB,
			NoMemo:        opts.NoMemo,
			Predict:       opts.Predict,
			PredictWindow: opts.PredictWindow,
			Audit:         envelopes[i],
		}
	}, opts.Jobs, reg)
	run.Quarantined = append(run.Quarantined, quarantined...)
	if opts.Audit {
		// Analysis-time quarantines supersede whatever classify may have
		// started writing before the failure.
		for _, q := range quarantined {
			envelopes[q.Index].Quarantined = q.Err.Error()
			envelopes[q.Index].Races = nil
		}
		run.Audit = audit.NewFile()
		for _, ae := range audits {
			run.Audit.Executions = append(run.Audit.Executions, *ae)
		}
		run.Audit.DeriveCacheHits()
	}

	var parts []*classify.Classification
	labels := make([]string, len(healthy))
	for i, res := range results {
		labels[i] = healthy[i].Label
		if res == nil {
			continue
		}
		res.Machine = healthy[i].Machine
		run.Scenarios = append(run.Scenarios, ScenarioRun{Scenario: healthy[i].Scenario, Result: res})
		parts = append(parts, res.Classification)
	}
	run.Merged = classify.Merge(parts...)
	if opts.Predict {
		run.Predict = BuildSuitePredict(labels, results)
	}
	if opts.Static {
		run.Static = crossValidateSuite(run, opts.Jobs, reg)
	}
	publishSuiteMetrics(reg, run)
	return run
}

// Harmful reports whether the run holds any potentially harmful
// verdict, observed or predicted — the batch commands' exit-1 condition.
func (r *SuiteRun) Harmful() bool {
	if _, harmful := r.Merged.CountByVerdict(); harmful > 0 {
		return true
	}
	if r.Predict != nil && r.Predict.Merged != nil {
		_, harmful := r.Predict.Merged.CountByVerdict()
		return harmful > 0
	}
	return false
}

// runNative executes prog on a bare machine — no observer, no recorder —
// under the "native" span, giving the ladder its uninstrumented baseline.
func runNative(prog *isa.Program, cfg machine.Config, reg *obs.Registry) error {
	sp := reg.StartSpan("native")
	defer sp.End()
	cfg.Observer = nil
	m, err := machine.New(prog, cfg)
	if err != nil {
		return err
	}
	res := m.Run()
	reg.Counter("native.instructions").Add(res.TotalSteps)
	reg.Counter("native.executions").Inc()
	return nil
}

// publishSuiteMetrics records the merged suite verdicts (report.* is the
// fifth pipeline stage: what the tool hands to developers).
func publishSuiteMetrics(reg *obs.Registry, run *SuiteRun) {
	if reg == nil {
		return
	}
	benign, harmful := run.Merged.CountByVerdict()
	reg.Counter("report.scenarios").Add(uint64(len(run.Scenarios)))
	reg.Counter("report.unique_races").Add(uint64(len(run.Merged.Races)))
	reg.Counter("report.potentially_benign").Add(uint64(benign))
	reg.Counter("report.potentially_harmful").Add(uint64(harmful))
	reg.Counter("report.instances").Add(uint64(run.Merged.TotalInstances()))
}

// RunSuiteSeeds analyzes every scenario under `seeds` different scheduler
// seeds each (the base seed plus offsets) and merges everything. This is
// the paper's coverage lever: "the more the number of test cases
// analyzed, the more likely harmful data races will be discovered" (§1) —
// and the more instances accumulate per race, the greater the confidence
// in a potentially-benign verdict (§4.3).
func RunSuiteSeeds(db *classify.DB, seeds int) (*SuiteRun, error) {
	return RunSuiteOpts(SuiteOptions{DB: db, Seeds: seeds})
}

// FindScenario returns the scenario with the given name, or an error.
func FindScenario(name string) (Scenario, error) {
	if name == "browse" {
		return BrowseScenario(), nil
	}
	if name == "service" {
		return ServiceScenario(), nil
	}
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workloads: unknown scenario %q", name)
}
