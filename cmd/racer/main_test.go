package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"

	racereplay "repro"
)

// capture redirects command output to a builder for the duration of f.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	var b strings.Builder
	old := stdout
	stdout = &b
	defer func() { stdout = old }()
	if err := f(); err != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", err, b.String())
	}
	return b.String()
}

const testProg = `
.entry main
.word g 0
worker:
  ldi r2, g
  addi r3, r1, 5
wstore:
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  ldi r2, g
  ld r1, [r2+0]
  sys print
  halt
`

func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.rasm")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdRunAndPolicies(t *testing.T) {
	path := writeProg(t)
	for _, policy := range []string{"random", "rr", "pct"} {
		out := capture(t, func() error { return cmdRun([]string{"-seed", "3", "-policy", policy, path}) })
		if !strings.Contains(out, "thread 0: halted") {
			t.Errorf("policy %s: run output missing main thread:\n%s", policy, out)
		}
	}
	if err := cmdRun([]string{"-policy", "bogus", path}); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := cmdRun([]string{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdRecordReplayDetectClassify(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "run.rlog")

	out := capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	if !strings.Contains(out, "bits/instr") {
		t.Errorf("record output missing stats:\n%s", out)
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Fatal("log not written")
	}

	out = capture(t, func() error { return cmdReplay([]string{logPath}) })
	if !strings.Contains(out, "sequencing regions") {
		t.Errorf("replay output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{logPath}) })
	if !strings.Contains(out, "unique data races") {
		t.Errorf("detect output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{"-detector", "vc", logPath}) })
	if !strings.Contains(out, "unique data races") {
		t.Errorf("vc detect output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{"-detector", "lockset", logPath}) })
	if !strings.Contains(out, "lockset warnings") {
		t.Errorf("lockset output:\n%s", out)
	}
	if err := cmdDetect([]string{"-detector", "bogus", logPath}); err == nil {
		t.Error("bogus detector accepted")
	}

	out = capture(t, func() error { return cmdClassify([]string{logPath}) })
	if !strings.Contains(out, "potentially benign") {
		t.Errorf("classify output:\n%s", out)
	}
}

func TestCmdScenarioAndScenarios(t *testing.T) {
	out := capture(t, func() error { return cmdScenarios(nil) })
	if !strings.Contains(out, "exec01") || !strings.Contains(out, "browse") {
		t.Errorf("scenarios output:\n%s", out)
	}
	out = capture(t, func() error { return cmdScenario([]string{"-name", "exec01"}) })
	if !strings.Contains(out, "scenario exec01") || !strings.Contains(out, "races:") {
		t.Errorf("scenario output:\n%s", out)
	}
	if err := cmdScenario([]string{"-name", "nosuch"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestCmdMarkBenignRoundTrip(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	out := capture(t, func() error {
		return cmdMarkBenign([]string{"-db", dbPath, "-race", "suite:a <-> suite:b", "-note", "triaged"})
	})
	if !strings.Contains(out, "marked") {
		t.Errorf("mark-benign output:\n%s", out)
	}
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "suite:a") {
		t.Errorf("db missing mark:\n%s", data)
	}
	if err := cmdMarkBenign([]string{"-db", dbPath, "-race", "no-arrow"}); err == nil {
		t.Error("malformed race accepted")
	}
	if err := cmdMarkBenign([]string{"-db", dbPath}); err == nil {
		t.Error("missing race accepted")
	}
}

func TestCmdDisasm(t *testing.T) {
	prog := writeProg(t)
	out := capture(t, func() error { return cmdDisasm([]string{prog}) })
	for _, want := range []string{"worker:", "main:", "sys spawn", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disasm missing %q:\n%s", want, out)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"random": "random", "rr": "round-robin", "round-robin": "round-robin", "pct": "pct", "": "random",
	} {
		p, err := parsePolicy(name)
		if err != nil || p.String() != want {
			t.Errorf("parsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := parsePolicy("zzz"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestCmdSuiteSummary(t *testing.T) {
	out := capture(t, func() error { return cmdSuite([]string{}) })
	for _, want := range []string{"unique races: 68", "Table 1", "reported for triage: 36 (7 real bugs among them)"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestCmdSuiteWithDBSuppression(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	capture(t, func() error {
		return cmdMarkBenign([]string{"-db", dbPath, "-race", "suite:actr01_ast <-> suite:actr01_ast"})
	})
	out := capture(t, func() error { return cmdSuite([]string{"-db", dbPath}) })
	if !strings.Contains(out, "unique races: 68") {
		t.Errorf("suite with db output:\n%s", out[:200])
	}
}

func TestCmdErrorsOnMissingFiles(t *testing.T) {
	for name, f := range map[string]func([]string) error{
		"replay":   cmdReplay,
		"detect":   cmdDetect,
		"classify": cmdClassify,
		"disasm":   cmdDisasm,
		"debug":    cmdDebug,
	} {
		if err := f([]string{"/nonexistent/file"}); err == nil {
			t.Errorf("%s accepted a missing file", name)
		}
		if err := f(nil); err == nil {
			t.Errorf("%s accepted no args", name)
		}
	}
	if err := cmdRecord([]string{"/nonexistent.rasm"}); err == nil {
		t.Error("record accepted a missing file")
	}
}

func TestCmdScenarioService(t *testing.T) {
	out := capture(t, func() error { return cmdScenario([]string{"-name", "service"}) })
	if !strings.Contains(out, "scenario service") || !strings.Contains(out, "0 potentially harmful") {
		t.Errorf("service scenario output:\n%s", out)
	}
}

func TestCmdRecordWithKeyFramesAndDump(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "kf.rlog")
	out := capture(t, func() error {
		return cmdRecord([]string{"-keyframes", "4", "-o", logPath, prog})
	})
	if !strings.Contains(out, "recorded") {
		t.Errorf("record output:\n%s", out)
	}
	out = capture(t, func() error { return cmdReplay([]string{logPath}) })
	if !strings.Contains(out, "sequencing regions") {
		t.Errorf("keyframed log replay:\n%s", out)
	}
	out = capture(t, func() error { return cmdScenario([]string{"-name", "exec01", "-dump"}) })
	if !strings.Contains(out, ".entry main") || !strings.Contains(out, "sys spawn") {
		t.Errorf("dump output:\n%s", out[:200])
	}
}

func TestRecordSuiteThenAnalyzeDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	out := capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	if !strings.Contains(out, "recorded 18 executions") {
		t.Errorf("record-suite output:\n%s", out)
	}
	out = capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	for _, want := range []string{"analyzed 18 recorded executions", "unique races: 68", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze-dir output missing %q", want)
		}
	}
	if err := cmdAnalyzeDir([]string{"-dir", filepath.Join(dir, "empty")}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestScenarioRaceFilterRoundTrip(t *testing.T) {
	// The reproduce line printed in race reports must actually work: find
	// a race in exec01, then re-run with -race and get exactly that race.
	var sites string
	out := capture(t, func() error { return cmdScenario([]string{"-name", "exec01"}) })
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "race ") {
			sites = strings.TrimPrefix(line, "race ")
			break
		}
	}
	if sites == "" {
		t.Fatal("no race found in exec01")
	}
	out = capture(t, func() error {
		return cmdScenario([]string{"-name", "exec01", "-race", sites})
	})
	if !strings.Contains(out, "race "+sites) {
		t.Errorf("filtered output missing the race:\n%s", out)
	}
	// Exactly one race block is printed.
	if strings.Count(out, "\nrace ") > 1 {
		t.Errorf("filter printed more than one race:\n%s", out)
	}
}

// TestFullTriageLoop is the paper's §1 story as one end-to-end CLI flow:
// record the product's test scenarios once; analyze offline; triage the
// potentially-harmful set, marking the tolerated races benign; re-analyze
// and get only the real bugs.
func TestFullTriageLoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	dbPath := filepath.Join(t.TempDir(), "races.json")

	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })

	// First offline analysis: 36 potentially harmful races show up.
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "potentially benign: 32 (47% of all races)") {
		t.Fatalf("first analysis:\n%s", out)
	}
	if !strings.Contains(out, "reported for triage: 36 (7 real bugs among them)") {
		t.Fatalf("first analysis triage queue:\n%s", out)
	}

	// "Triage": mark the 29 tolerated races benign. (The test plays the
	// role of the domain expert using the ground truth.)
	run, err := racereplay.RunSuite(nil)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, r := range run.Merged.Races {
		h, _, ok := report.SuiteTruth(r.Sites.A)
		if ok && !h && r.Verdict == racereplay.PotentiallyHarmful {
			capture(t, func() error {
				return cmdMarkBenign([]string{"-db", dbPath, "-race", r.Sites.String(), "-note", "triaged"})
			})
			marked++
		}
	}
	if marked != 29 {
		t.Fatalf("marked %d races, want 29", marked)
	}

	// Second analysis: only the 7 real bugs remain on the triage queue.
	out = capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-db", dbPath}) })
	if !strings.Contains(out, "suppressed by the race database: 29") {
		t.Fatalf("second analysis missing suppression:\n%s", out)
	}
	if !strings.Contains(out, "reported for triage: 7 (7 real bugs among them)") {
		t.Fatalf("second analysis:\n%s", out)
	}
}

func TestCmdDetectLocksetTriage(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "t.rlog")
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	out := capture(t, func() error {
		return cmdDetect([]string{"-detector", "lockset", "-triage", logPath})
	})
	if !strings.Contains(out, "replay triage of the lockset report") {
		t.Errorf("triage section missing:\n%s", out)
	}
}

// resetExit zeroes the exit status for one test and restores it after,
// so exit-code assertions don't leak between tests.
func resetExit(t *testing.T) {
	t.Helper()
	old := exitCode
	exitCode = 0
	t.Cleanup(func() { exitCode = old })
}

// corruptCorpus returns the repo's checked-in known-bad logs.
func corruptCorpus(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corrupt", "*.rlog"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corrupt corpus missing: %v (%d files)", err, len(paths))
	}
	return paths
}

// TestExitCodeContract: 0 clean, 1 findings, 2 invalid input.
func TestExitCodeContract(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "run.rlog")

	// Clean commands leave the status at 0.
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	capture(t, func() error { return cmdValidate([]string{logPath}) })
	if exitCode != 0 {
		t.Fatalf("clean run exit = %d, want 0", exitCode)
	}

	// Findings (the test program races) raise it to 1.
	capture(t, func() error { return cmdClassify([]string{logPath}) })
	if exitCode != 1 {
		t.Fatalf("findings exit = %d, want 1", exitCode)
	}

	// Invalid input beats findings: 2.
	capture(t, func() error { return cmdValidate([]string{corruptCorpus(t)[0]}) })
	if exitCode != 2 {
		t.Fatalf("invalid input exit = %d, want 2", exitCode)
	}
}

// TestCmdValidate: good logs report ok, corrupt logs report their typed
// error per file without aborting the sweep.
func TestCmdValidate(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "ok.rlog")
	capture(t, func() error { return cmdRecord([]string{"-o", logPath, prog}) })

	files := append([]string{logPath}, corruptCorpus(t)...)
	out := capture(t, func() error { return cmdValidate(files) })
	if !strings.Contains(out, "ok.rlog: ok (") {
		t.Errorf("healthy log not reported ok:\n%s", out)
	}
	if !strings.Contains(out, "INVALID: trace: ") {
		t.Errorf("corrupt log missing typed error:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("%d of %d logs invalid", len(files)-1, len(files))) {
		t.Errorf("summary line wrong:\n%s", out)
	}
	if exitCode != 2 {
		t.Errorf("validate exit = %d, want 2", exitCode)
	}
	if err := cmdValidate(nil); err == nil {
		t.Error("validate with no files accepted")
	}
}

// TestCmdAnalyzeDirQuarantinesCorruptLogs is the acceptance scenario:
// a directory mixing healthy recordings with every known-bad log
// completes with partial results, lists each bad file in the quarantine
// section, and exits 2.
func TestCmdAnalyzeDirQuarantinesCorruptLogs(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	corrupt := corruptCorpus(t)
	for _, src := range corrupt {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "zz-"+filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "analyzed 18 recorded executions") {
		t.Errorf("healthy logs not analyzed:\n%s", out[:200])
	}
	if !strings.Contains(out, fmt.Sprintf("quarantined: %d input(s)", len(corrupt))) {
		t.Errorf("quarantine section missing or wrong:\n%s", out)
	}
	for _, src := range corrupt {
		if !strings.Contains(out, "zz-"+filepath.Base(src)+": ") {
			t.Errorf("quarantine section missing %s:\n%s", filepath.Base(src), out)
		}
	}
	if exitCode != 2 {
		t.Errorf("quarantined batch exit = %d, want 2", exitCode)
	}
}

// TestCmdAnalyzeDirAllQuarantinedExits2 is the exit-code contract's edge
// case: a directory in which *every* input file is quarantined analyzed
// nothing, so the batch must exit 2 (invalid input) — never fall through
// to 0 ("clean") on the strength of an empty merged report.
func TestCmdAnalyzeDirAllQuarantinedExits2(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := corruptCorpus(t)
	for _, src := range corrupt {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "analyzed 0 recorded executions") {
		t.Errorf("fully-quarantined batch should analyze nothing:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("quarantined: %d input(s)", len(corrupt))) {
		t.Errorf("quarantine section missing or wrong:\n%s", out)
	}
	if exitCode != 2 {
		t.Errorf("fully-quarantined batch exit = %d, want 2 (invalid input)", exitCode)
	}
}

// TestCmdChaos: the CLI front end for the contract runner holds the
// contract over a quick corruption sweep and renders the summary.
func TestCmdChaos(t *testing.T) {
	resetExit(t)
	out := capture(t, func() error { return cmdChaos([]string{"-corruptions", "24", "-seed", "7"}) })
	if !strings.Contains(out, "chaos: 24 corruptions (seed 7)") {
		t.Errorf("chaos summary header:\n%s", out)
	}
	if !strings.Contains(out, "contract: 0 panics, 0 unbounded allocations, 0 untyped errors") {
		t.Errorf("chaos contract line:\n%s", out)
	}
}

// TestCmdSuiteParallelOutputIsByteIdentical drives the full CLI path:
// the rendered suite report must not change with the worker count.
func TestCmdSuiteParallelOutputIsByteIdentical(t *testing.T) {
	serial := capture(t, func() error { return cmdSuite([]string{"-jobs", "1", "-seeds", "2", "-v"}) })
	parallel := capture(t, func() error { return cmdSuite([]string{"-jobs", "8", "-seeds", "2", "-v"}) })
	if serial != parallel {
		t.Fatalf("suite output diverges between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestCmdRecordSuiteAndAnalyzeDirParallel round-trips the offline
// workflow with parallel recording and parallel analysis, checking that
// the analyze-dir report matches its serial rendering.
func TestCmdRecordSuiteAndAnalyzeDirParallel(t *testing.T) {
	dir := t.TempDir()
	recOut := capture(t, func() error {
		return cmdRecordSuite([]string{"-dir", dir, "-jobs", "8"})
	})
	if !strings.Contains(recOut, "recorded 18 executions") {
		t.Fatalf("record-suite output: %s", recOut)
	}
	serial := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", "1"}) })
	parallel := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", "8"}) })
	if serial != parallel {
		t.Fatalf("analyze-dir output diverges between -jobs 1 and -jobs 8")
	}
	if !strings.Contains(serial, "analyzed 18 recorded executions") {
		t.Errorf("analyze-dir output: %s", serial[:120])
	}

	// The same round trip with both optional stages on: the prediction
	// and static sections must render, and identically at any width.
	stages := func(jobs string) string {
		return capture(t, func() error {
			return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", jobs, "-static", "-predict"})
		})
	}
	serial, parallel = stages("1"), stages("8")
	if serial != parallel {
		t.Fatalf("analyze-dir -static -predict output diverges between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{
		"Predicted races (lockset + weak-HB reordering, classified by replay)\n  scenario ",
		"\n  exec01-0.rlog ",
		"Static cross-validation (lint vs dynamic HB + replay)\n  scenario ",
		"\n  exec18 ",
		" refuted, 0 unmatched, 0 missed\n",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("analyze-dir -static -predict output missing %q:\n%s", want, serial)
		}
	}
}

// TestAnalyzeDirStaticGroupsOnlySeedSuffixes: the static stage pools the
// logs of one program by record-suite's "<scenario>-<k>.rlog" naming, and
// only an all-digit k counts. A foreign "exec02-1x.rlog" (here exec01's
// log under another name) is its own group; pooled with exec02's seeds it
// would charge exec02's lint report with a race its program cannot have.
func TestAnalyzeDirStaticGroupsOnlySeedSuffixes(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "rec")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", rec, "-seeds", "2"}) })
	dir := filepath.Join(t.TempDir(), "mixed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for src, dst := range map[string]string{
		"exec02-0.rlog": "exec02-0.rlog",
		"exec02-1.rlog": "exec02-1.rlog",
		"exec01-0.rlog": "exec02-1x.rlog",
	} {
		data, err := os.ReadFile(filepath.Join(rec, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-static"}) })
	section := out[strings.Index(out, "Static cross-validation"):]
	var rows []string
	for _, line := range strings.Split(section, "\n")[2:] {
		if !strings.HasPrefix(line, "  total:") {
			rows = append(rows, strings.Join(strings.Fields(line), " "))
			continue
		}
		if want := "  total: 16 matched, 0 refuted, 0 unmatched, 0 missed"; line != want {
			t.Errorf("static total = %q, want %q", line, want)
		}
		break
	}
	// Columns: scenario, candidates, matched, refuted, unmatched, missed.
	want := []string{"exec02 8 8 0 0 0", "exec02-1x 8 8 0 0 0"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Errorf("static rows = %q, want %q\n%s", rows, want, out)
	}
}

// TestFormatDivergence: the container format is transport, never
// semantics — the same executions recorded as v1 and as v2 must analyze
// to byte-identical reports and audit trails, at any worker count.
func TestFormatDivergence(t *testing.T) {
	base := t.TempDir()
	dirV1 := filepath.Join(base, "v1")
	dirV2 := filepath.Join(base, "v2")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dirV1, "-seeds", "2", "-format", "v1"}) })
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dirV2, "-seeds", "2", "-format", "v2"}) })
	auditV1 := filepath.Join(base, "audit-v1.json")
	auditV2 := filepath.Join(base, "audit-v2.json")
	repV1 := capture(t, func() error {
		return cmdAnalyzeDir([]string{"-dir", dirV1, "-jobs", "1", "-audit-out", auditV1})
	})
	repV2 := capture(t, func() error {
		return cmdAnalyzeDir([]string{"-dir", dirV2, "-jobs", "4", "-audit-out", auditV2})
	})
	if repV1 != repV2 {
		t.Errorf("analyze-dir reports diverge between formats:\n-- v1 (jobs=1) --\n%s\n-- v2 (jobs=4) --\n%s", repV1, repV2)
	}
	a1, err := os.ReadFile(auditV1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := os.ReadFile(auditV2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a1) != string(a2) {
		t.Error("audit trails diverge between formats")
	}
}
