// Package racereplay is a from-scratch reproduction of "Automatically
// Classifying Benign and Harmful Data Races Using Replay Analysis"
// (Narayanasamy, Wang, Tigani, Edwards, Calder — PLDI 2007).
//
// The package records a multi-threaded RVM program's execution into an
// iDNA-style replay log, replays it deterministically, finds data races
// with a happens-before (sequencing-region overlap) detector, and
// classifies every race by replaying each dynamic instance twice in a
// virtual processor — once per order of the racing operations. Races all
// of whose instances produce identical live-outs are potentially benign;
// the rest are potentially harmful and come with a reproducible two-order
// replay scenario.
//
// Quick start:
//
//	prog, err := racereplay.Assemble("demo", src)
//	res, err := racereplay.Analyze(prog, racereplay.Config{Seed: 1}, racereplay.Options{})
//	for _, race := range res.Classification.Races {
//		fmt.Println(racereplay.RaceReport(race))
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results of every table and figure.
package racereplay

import (
	"io"

	"repro/internal/asm"
	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/static"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported core types. The aliases make the public API self-contained:
// callers never import internal packages directly.
type (
	// Program is an assembled RVM program.
	Program = isa.Program
	// Config controls one deterministic machine run.
	Config = machine.Config
	// Log is a recorded execution (the replay log).
	Log = trace.Log
	// Execution is a fully replayed run with regions and accesses.
	Execution = replay.Execution
	// RaceSet is the happens-before detector's output.
	RaceSet = hb.Report
	// SitePair is the static identity of a race.
	SitePair = hb.SitePair
	// Options tunes an analysis: classification, prediction, and the
	// metrics registry (Options.Metrics) every offline stage publishes
	// into.
	Options = classify.Options
	// Memo is the dual-order replay cache: pass one Memo in
	// Options.Memo to share cached verdicts across executions of the
	// same program.
	Memo = classify.Memo
	// Classification is the per-race verdict set.
	Classification = classify.Classification
	// RaceResult is one classified race.
	RaceResult = classify.RaceResult
	// Result bundles one analyzed execution.
	Result = core.Result
	// Quarantined records one batch item whose analysis failed; the batch
	// completes with partial results instead of aborting.
	Quarantined = core.Quarantined
	// DB is the persistent race database for the triage workflow.
	DB = classify.DB
	// SizeStats quantifies a log's footprint.
	SizeStats = trace.SizeStats
	// Scenario is one built-in workload execution.
	Scenario = workloads.Scenario
	// SuiteRun is the analysis of the whole built-in suite.
	SuiteRun = workloads.SuiteRun
	// SuiteOptions configures a suite analysis: race database, seeds per
	// scenario, analysis worker count, and metrics registry.
	SuiteOptions = workloads.SuiteOptions
	// StaticReport is the static analyzer's output for one program:
	// thread entries, race candidates with benign-idiom hints, and skip
	// counters for what the analysis had to give up on.
	StaticReport = static.Report
	// StaticCandidate is one static race candidate.
	StaticCandidate = static.Candidate
	// StaticCross joins static candidates against dynamic evidence
	// (matched / refuted / unmatched, plus missed dynamic races).
	StaticCross = static.CrossResult
	// Metrics is the pipeline-wide observability registry: counters,
	// gauges, histograms, and stage spans. It rides in Options.Metrics,
	// SuiteOptions.Registry and DecodeOptions.Metrics; nil is off and
	// then costs nothing.
	Metrics = obs.Registry
	// MetricsSnapshot is a frozen registry, renderable as text, JSON, or
	// Prometheus exposition format.
	MetricsSnapshot = obs.Snapshot
	// Timeline is the flight recorder attached to a Metrics registry by
	// EnableTimeline: per-worker ring-buffered event streams, exportable
	// as Chrome trace_event JSON (WriteTrace).
	Timeline = obs.Timeline
	// TimelineEvent is one flight-recorder record in a timeline snapshot.
	TimelineEvent = obs.Event
	// TimelineEventKind is the shape of a timeline event: instant, stage
	// begin, or stage end.
	TimelineEventKind = obs.EventKind
	// AuditFile is the versioned verdict-provenance trail
	// (racereplay-audit/v1): per execution, the input log's content hash
	// and per-race replay evidence. Suite runs assemble one when
	// SuiteOptions.Audit is set.
	AuditFile = audit.File
	// AuditExecution is one execution's provenance record within an
	// AuditFile; Options.Audit points classification at one to fill.
	AuditExecution = audit.Execution
	// OnlineConfig picks a recording's mode: the online race detector
	// on/off, stop-on-first-race, key frames every KeyFrameInterval
	// instructions (for ThreadStateAt), and key-frame down-sampling once
	// a race is confirmed.
	OnlineConfig = record.OnlineConfig
	// OnlineReport is the online detector's verdict for one recording:
	// race-free or the distinct racy site pairs seen, plus screening
	// statistics.
	OnlineReport = hb.OnlineReport
	// OnlineInfo is the in-memory online-verdict annotation a recording
	// carries on its Log; it is never serialized, so logs decoded from
	// disk always take the full offline pass.
	OnlineInfo = trace.OnlineInfo
	// PredictOptions tunes a prediction pass (window bound, metrics).
	PredictOptions = predict.Options
	// PredictReport is the prediction pass output for one execution:
	// every feasible candidate pair with its witness schedule, plus
	// screening statistics and per-constraint rejection counts.
	PredictReport = predict.Report
	// PredictCandidate is one feasible predicted race pair; its Instance
	// points at real recorded regions, so it classifies exactly like a
	// detector instance.
	PredictCandidate = predict.Candidate
	// PredictWitness is the schedule evidence attached to a candidate:
	// "observed" (the regions overlapped) or "reordered" (the hoisted
	// witness suffix, as region Globals).
	PredictWitness = predict.Witness
	// Predicted bundles one execution's prediction stage as attached to
	// Result.Predicted when Options.Predict is set: the raw report, the
	// predicted-new races, and their replay classification.
	Predicted = core.Predicted
	// SuitePredict aggregates the prediction stage across a batch run.
	SuitePredict = workloads.SuitePredict
	// Manifest is the record-suite sidecar (racereplay-manifest/v1)
	// carrying each log's online verdict across process boundaries.
	Manifest = trace.Manifest
	// ManifestEntry is one log's record in a Manifest.
	ManifestEntry = trace.ManifestEntry
)

// Timeline event kinds.
const (
	EvInstant = obs.EvInstant
	EvBegin   = obs.EvBegin
	EvEnd     = obs.EvEnd
)

// Verdicts and Table-1 groups.
const (
	PotentiallyBenign  = classify.PotentiallyBenign
	PotentiallyHarmful = classify.PotentiallyHarmful

	GroupNoStateChange = classify.GroupNoStateChange
	GroupStateChange   = classify.GroupStateChange
	GroupReplayFailure = classify.GroupReplayFailure
)

// Assemble parses RVM assembly into a validated program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// MustAssemble is Assemble that panics on error (for known-good sources).
func MustAssemble(name, src string) *Program { return asm.MustAssemble(name, src) }

// NewMetrics returns an empty observability registry for
// Options.Metrics, SuiteOptions.Registry or DecodeOptions.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewMemo returns an empty dual-order replay cache for Options.Memo.
// Classification memoizes by default; an explicit shared Memo extends
// the sharing across executions.
func NewMemo() *Memo { return classify.NewMemo() }

// Record runs prog under cfg and returns the replay log.
func Record(prog *Program, cfg Config) (*Log, error) {
	return RecordInstrumented(prog, cfg, nil)
}

// RecordInstrumented is Record with stage metrics published into reg
// (nil reg behaves exactly like Record).
func RecordInstrumented(prog *Program, cfg Config, reg *Metrics) (*Log, error) {
	return logOf(record.Run(prog, cfg, OnlineConfig{}, reg))
}

// RecordOnline records in the mode oc picks. With oc.Detect the
// incremental race detector watches the run: the returned log carries the
// raced/race-free verdict as its in-memory Online annotation (consumed by
// AnalyzeLog's race-free fast path) and the report details what the
// detector saw. oc.KeyFrameInterval adds key frames, enabling fast
// mid-log per-thread state queries (ThreadStateAt).
func RecordOnline(prog *Program, cfg Config, oc OnlineConfig) (*Log, *OnlineReport, error) {
	return RecordOnlineInstrumented(prog, cfg, oc, nil)
}

// RecordOnlineInstrumented is RecordOnline with stage metrics, including
// the detect.online.* family, published into reg (nil reg behaves
// exactly like RecordOnline). The report is nil unless oc.Detect is set.
func RecordOnlineInstrumented(prog *Program, cfg Config, oc OnlineConfig, reg *Metrics) (*Log, *OnlineReport, error) {
	return onlineOf(record.Run(prog, cfg, oc, reg))
}

// logOf and onlineOf drop the parts of a recording the facade does not
// return.
func logOf(log *Log, _ *machine.Result, _ *OnlineReport, err error) (*Log, error) {
	return log, err
}

func onlineOf(log *Log, _ *machine.Result, rep *OnlineReport, err error) (*Log, *OnlineReport, error) {
	return log, rep, err
}

// ThreadStateAt answers a per-thread state query (registers + memory
// view after idx instructions) from a log, resuming from the nearest key
// frame when the log has them.
func ThreadStateAt(log *Log, tid int, idx uint64) (*replay.ThreadState, error) {
	return replay.ThreadStateAt(log, tid, idx)
}

// Replay re-executes a recorded log deterministically, reconstructing
// sequencing regions, accesses, and live-ins.
func Replay(log *Log) (*Execution, error) { return replay.Run(log, replay.Options{}) }

// ReplayTo replays only the first n regions of the schedule — the
// time-travel primitive: replaying successively shorter prefixes steps
// the execution backwards (iDNA's reverse debugging).
func ReplayTo(log *Log, n int) (*Execution, error) { return replay.StateAt(log, n) }

// DetectRaces runs the paper's happens-before detector over a replayed
// execution. It reports no false positives with respect to the recording.
func DetectRaces(exec *Execution) *RaceSet { return hb.Detect(exec) }

// DetectRacesVC runs the vector-clock ablation detector (DESIGN.md A1).
func DetectRacesVC(exec *Execution) (*RaceSet, error) { return hb.DetectVC(exec, nil) }

// DetectRacesLockset runs the Eraser-style lockset baseline over a
// replayed execution (it can report false positives).
func DetectRacesLockset(exec *Execution) *lockset.Report { return lockset.Detect(exec) }

// TriageLockset applies the paper's replay analysis to a lockset report
// (§2.2.2): warnings whose conflicting accesses are all sequencer-ordered
// are dismissed as false positives; the genuinely racy ones are
// classified by dual-order replay.
func TriageLockset(exec *Execution, rep *lockset.Report, opts Options) []classify.LocksetTriage {
	return classify.TriageLockset(exec, rep, opts)
}

// Classify analyzes every race instance by dual-order replay and
// aggregates the per-race verdicts.
func Classify(exec *Execution, races *RaceSet, opts Options) *Classification {
	return classify.Run(exec, races, opts)
}

// MergeClassifications folds per-execution classifications into
// cross-execution verdicts (the same race accumulates instances).
func MergeClassifications(parts ...*Classification) *Classification {
	return classify.Merge(parts...)
}

// AnalyzeStatic runs the ahead-of-execution race analyzer over a program:
// per-thread-entry CFG, constant-propagation address resolution, must-hold
// locksets, and benign-idiom hints. It executes nothing and never fails —
// unanalyzable constructs degrade into the report's skip counters.
func AnalyzeStatic(prog *Program) *StaticReport { return static.Analyze(prog, nil) }

// AnalyzeStaticInstrumented is AnalyzeStatic publishing static.* counters
// into reg under a "static" span (nil reg behaves like AnalyzeStatic).
func AnalyzeStaticInstrumented(prog *Program, reg *Metrics) *StaticReport {
	return static.Analyze(prog, reg)
}

// CrossValidateStatic joins a static report against the dynamic evidence
// of one or more analyzed executions of the same program: candidates come
// back matched (a dynamic race confirmed them), refuted (both sites ran,
// no race), or unmatched (a site never executed), and dynamic races with
// no candidate are listed as static false negatives.
func CrossValidateStatic(rep *StaticReport, results ...*Result) *StaticCross {
	return static.CrossValidate(rep, core.CollectEvidence(results), nil)
}

// CrossValidateStaticInstrumented is CrossValidateStatic publishing the
// static.matched/refuted/unmatched/missed counters into reg.
func CrossValidateStaticInstrumented(rep *StaticReport, reg *Metrics, results ...*Result) *StaticCross {
	return static.CrossValidate(rep, core.CollectEvidence(results), reg)
}

// PredictRaces runs the prediction pass over a replayed execution:
// lockset + weak-HB screening, access-block grouping, and the windowed
// ordering solver. The result is a deterministic function of the
// execution; use Report.NewReport to subtract an observed race set and
// Classify to judge the remainder. The usual entry point is
// Options.Predict on AnalyzeLog and friends, which does all of that
// and attaches the bundle to Result.Predicted.
func PredictRaces(exec *Execution, opts PredictOptions) *PredictReport {
	return predict.Run(exec, opts)
}

// PredictedReport renders one execution's prediction stage — solver
// statistics and every predicted-new race with verdict and witness.
func PredictedReport(p *Predicted) string { return report.PredictedReport(p) }

// Analyze runs the whole pipeline: record, replay, detect, classify.
// opts.Metrics, when set, receives every layer's spans and counters.
func Analyze(prog *Program, cfg Config, opts Options) (*Result, error) {
	return core.Analyze(prog, cfg, OnlineConfig{}, opts)
}

// AnalyzeLog runs the offline pipeline over an existing log.
// opts.Metrics, when set, receives the replay/detect/classify spans and
// counters.
func AnalyzeLog(log *Log, opts Options) (*Result, error) { return core.AnalyzeLog(log, opts) }

// AnalyzeLogs runs the offline pipeline over a batch of logs, fanning
// the work across jobs workers (jobs < 1 means GOMAXPROCS). optsFor
// supplies the i-th log's options; results come back in input order and
// are identical to calling AnalyzeLog on each log serially. The batch
// never aborts: a log that fails (or panics) leaves a nil result slot
// and a Quarantined entry describing the failure.
func AnalyzeLogs(logs []*Log, optsFor func(i int) Options, jobs int) ([]*Result, []Quarantined) {
	return core.AnalyzeLogs(logs, optsFor, jobs, nil)
}

// AnalyzeLogsInstrumented is AnalyzeLogs with stage metrics: worker
// span trees are folded into reg in input order, so the merged ladder —
// like the results — is byte-identical at every worker count. The pool
// also publishes its sched.* metrics, and every quarantined item
// increments robust.quarantined. A nil reg behaves exactly like
// AnalyzeLogs.
func AnalyzeLogsInstrumented(logs []*Log, optsFor func(i int) Options, jobs int, reg *Metrics) ([]*Result, []Quarantined) {
	return core.AnalyzeLogs(logs, optsFor, jobs, reg)
}

// AnalyzeSource assembles src and analyzes one execution with the given
// scheduler seed — the one-call entry point the examples use.
func AnalyzeSource(name, src string, seed int64) (*Result, error) {
	prog, err := Assemble(name, src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, Config{Seed: seed}, Options{Scenario: name, Seed: seed})
}

// WriteLog serializes and compresses a log (v1 container).
func WriteLog(w io.Writer, log *Log) error { return trace.Write(w, log) }

// LogFormat names an on-disk container format: FormatV1 (whole-log flate
// container) or FormatV2 (segmented, index-first, parallel decode).
type LogFormat = trace.Format

const (
	FormatV1 = trace.FormatV1
	FormatV2 = trace.FormatV2
)

// ParseLogFormat validates a -format flag value.
func ParseLogFormat(s string) (LogFormat, error) { return trace.ParseFormat(s) }

// WriteLogFormat serializes a log to w in the named container format.
func WriteLogFormat(w io.Writer, log *Log, f LogFormat) error {
	return trace.WriteFormat(w, log, f)
}

// ReadLog parses a log written by WriteLog or WriteLogFormat; the
// container format is sniffed from the magic bytes.
func ReadLog(r io.Reader) (*Log, error) { return trace.Read(r) }

// ThreadFault names one per-thread segment a salvaging v2 decode
// dropped: the segment index, the thread it carried, and the typed
// decode error that condemned it.
type ThreadFault = trace.ThreadFault

// DecodeOptions configures DecodeLogOpts: v2 segment-decode worker
// count, thread salvage, and the metrics registry decode counters land
// in.
type DecodeOptions = core.DecodeOptions

// DecodeLogOpts decodes one serialized log of either format with v2
// worker fan-out and optional thread salvage; see core.DecodeOptions.
func DecodeLogOpts(data []byte, o DecodeOptions) (*Log, []ThreadFault, error) {
	return core.DecodeLogOpts(data, o)
}

// ValidateLog checks a decoded log's structural invariants (thread IDs,
// region endpoints, record indices). A non-nil error is a
// *trace.ValidateError naming the failed check.
func ValidateLog(log *Log) error { return trace.Validate(log) }

// LogStats measures a log's serialized footprint (§5.1 metrics).
func LogStats(log *Log) SizeStats { return trace.Stats(log) }

// LogStatsFormat measures a log's footprint in the named container
// format (v2's RawBytes is the container itself; its CompressedBytes the
// container deflated whole).
func LogStatsFormat(log *Log, f LogFormat) SizeStats { return trace.StatsFormat(log, f) }

// LoadDB reads a race database (missing file = empty database).
func LoadDB(path string) (*DB, error) { return classify.LoadDB(path) }

// NewDB returns an empty race database.
func NewDB() *DB { return classify.NewDB() }

// RaceReport renders the developer-facing report for one race, including
// the reproducible two-order replay coordinates.
func RaceReport(r *RaceResult) string { return report.RaceReport(r, report.SuiteTruth) }

// Suite exposes the built-in 18-execution workload suite that stands in
// for the paper's Windows Vista / Internet Explorer recordings.
func Suite() []Scenario { return workloads.Scenarios() }

// RunSuite analyzes the whole built-in suite and merges the verdicts.
func RunSuite(db *DB) (*SuiteRun, error) { return workloads.RunSuite(db) }

// RunSuiteSeeds analyzes the suite under several scheduler seeds per
// scenario, accumulating instances — the paper's coverage lever (§1).
func RunSuiteSeeds(db *DB, seeds int) (*SuiteRun, error) {
	return workloads.RunSuiteSeeds(db, seeds)
}

// RunSuiteOpts is the configurable suite driver: recording stays serial
// (the online half), while the offline analysis of every scenario × seed
// fans out across opts.Jobs workers with output identical to the serial
// run; opts.Registry, when set, receives the pipeline metrics plus a
// native (bare machine) baseline run per scenario, so the snapshot can
// render the §5.1 overhead ladder. RunSuite and RunSuiteSeeds are
// shorthands for common option sets.
func RunSuiteOpts(opts SuiteOptions) (*SuiteRun, error) {
	return workloads.RunSuiteOpts(opts)
}

// OverheadLadder renders the §5.1 per-stage overhead ladder from an
// instrumented run's snapshot.
func OverheadLadder(snap MetricsSnapshot) string { return report.OverheadLadder(snap) }

// AuditSection renders the verdict-provenance trail for human review
// (nil file renders nothing).
func AuditSection(f *AuditFile) string { return report.AuditSection(f) }

// LogDigest is the hex SHA-256 of a log's canonical serialization — the
// content identity audit records attach replay verdicts to.
func LogDigest(log *Log) string { return core.LogDigest(log) }

// ReadAuditFile loads and validates a racereplay-audit/v1 file.
func ReadAuditFile(path string) (*AuditFile, error) { return audit.ReadFile(path) }

// NewManifest returns an empty record-suite manifest envelope
// (racereplay-manifest/v1): the sidecar that carries online race-free
// verdicts from `racer record-suite -online` to `racer analyze-dir`.
func NewManifest() *Manifest { return trace.NewManifest() }

// ReadManifest loads and validates a racereplay-manifest/v1 file.
func ReadManifest(path string) (*Manifest, error) { return trace.ReadManifest(path) }
