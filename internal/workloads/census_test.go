package workloads

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/record"
)

// runSuite analyzes every scenario and merges the classifications.
func runSuite(t *testing.T) *classify.Classification {
	t.Helper()
	var parts []*classify.Classification
	for _, s := range Scenarios() {
		prog, err := s.Program()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := core.Analyze(prog, s.Config(), record.OnlineConfig{}, classify.Options{Scenario: s.Name, Seed: s.Seed})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		parts = append(parts, res.Classification)
	}
	return classify.Merge(parts...)
}

func TestSuiteStructure(t *testing.T) {
	all := All()
	races := 0
	perCat := map[Category]int{}
	for _, tm := range all {
		races += tm.Races
		perCat[tm.Category] += tm.Races
		if tm.Appearances < 1 {
			t.Errorf("template %s never appears", tm.Name)
		}
	}
	if races != 68 {
		t.Errorf("suite declares %d races, want 68", races)
	}
	want := map[Category]int{
		CatRedundantWrite: 13, CatDisjointBits: 9, CatUserSync: 8,
		CatDoubleCheck: 3, CatBothValid: 5, CatApprox: 23, CatHarmful: 7,
	}
	for cat, n := range want {
		if perCat[cat] != n {
			t.Errorf("category %v declares %d races, want %d", cat, perCat[cat], n)
		}
	}
	if len(Scenarios()) != NumScenarios {
		t.Errorf("scenarios = %d, want %d", len(Scenarios()), NumScenarios)
	}
}

func TestScenariosAssembleAndRun(t *testing.T) {
	for _, s := range Scenarios() {
		prog, err := s.Program()
		if err != nil {
			t.Fatalf("%s: assemble: %v", s.Name, err)
		}
		log, mres, _, err := record.Run(prog, s.Config(), record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatalf("%s: record: %v", s.Name, err)
		}
		if mres.Deadlocked {
			t.Errorf("%s: deadlocked", s.Name)
		}
		main := mres.Threads[0]
		if main.State.String() != "halted" {
			t.Errorf("%s: main thread state = %v (fault %v)", s.Name, main.State, main.Fault)
		}
		if err := log.Validate(); err != nil {
			t.Errorf("%s: log invalid: %v", s.Name, err)
		}
	}
}

// TestCensusMatchesPaper is the headline reproduction check: the merged
// classification over all 18 scenarios must reproduce Table 1.
func TestCensusMatchesPaper(t *testing.T) {
	merged := runSuite(t)

	type cell struct{ rb, rh int }
	byGroup := map[classify.Group]*cell{
		classify.GroupNoStateChange: {},
		classify.GroupStateChange:   {},
		classify.GroupReplayFailure: {},
	}
	var unknownSites []string
	mismatch := map[string]string{}
	for _, r := range merged.Races {
		tm := TemplateOfSite(r.Sites.A)
		if tm == nil {
			unknownSites = append(unknownSites, r.Sites.String())
			continue
		}
		c := byGroup[r.Group]
		if tm.RealHarmful {
			c.rh++
		} else {
			c.rb++
		}
		if r.Group != tm.ExpectGroup {
			mismatch[r.Sites.String()] = fmt.Sprintf("template %s (%v): got %v want %v [nsc=%d sc=%d rf=%d, %d inst]",
				tm.Name, tm.Category, r.Group, tm.ExpectGroup, r.NSC, r.SC, r.RF, r.Total)
		}
	}
	if len(unknownSites) > 0 {
		t.Errorf("races with unknown templates: %v", unknownSites)
	}

	total := len(merged.Races)
	t.Logf("unique races: %d (instances %d)", total, merged.TotalInstances())
	t.Logf("Table 1: NSC %d RB / %d RH | SC %d RB / %d RH | RF %d RB / %d RH",
		byGroup[classify.GroupNoStateChange].rb, byGroup[classify.GroupNoStateChange].rh,
		byGroup[classify.GroupStateChange].rb, byGroup[classify.GroupStateChange].rh,
		byGroup[classify.GroupReplayFailure].rb, byGroup[classify.GroupReplayFailure].rh)
	for sites, msg := range mismatch {
		t.Logf("MISMATCH %s: %s", sites, msg)
	}

	if total != 68 {
		t.Errorf("unique races = %d, want 68", total)
	}
	// Soundness requirements (must hold exactly, they are the paper's
	// headline claims):
	if byGroup[classify.GroupNoStateChange].rh != 0 {
		t.Errorf("a real-harmful race was classified potentially benign")
	}
	// Paper Table 1 row totals.
	if got := byGroup[classify.GroupNoStateChange].rb; got != 32 {
		t.Errorf("no-state-change real-benign = %d, want 32", got)
	}
	if got, goth := byGroup[classify.GroupStateChange].rb, byGroup[classify.GroupStateChange].rh; got != 15 || goth != 2 {
		t.Errorf("state-change = %d RB + %d RH, want 15 + 2", got, goth)
	}
	if got, goth := byGroup[classify.GroupReplayFailure].rb, byGroup[classify.GroupReplayFailure].rh; got != 14 || goth != 5 {
		t.Errorf("replay-failure = %d RB + %d RH, want 14 + 5", got, goth)
	}
	if len(mismatch) > 0 {
		t.Errorf("%d races landed outside their template's expected group", len(mismatch))
	}
	_ = hb.SitePair{}
}

func TestBrowseScenarioRuns(t *testing.T) {
	s := BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	log, mres, _, err := record.Run(prog, s.Config(), record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Deadlocked {
		t.Fatal("browse deadlocked")
	}
	if log.Instructions() < 3000 {
		t.Errorf("browse too small: %d instructions", log.Instructions())
	}
}

func TestTemplateOfSite(t *testing.T) {
	tm := TemplateOfSite("suite:red03_store+1")
	if tm == nil || tm.Name != "red03" {
		t.Fatalf("TemplateOfSite = %+v", tm)
	}
	if TemplateOfSite("suite:nosuch_x") != nil {
		t.Error("unknown template should be nil")
	}
	if TemplateOfSite("garbage") != nil {
		t.Error("garbage site should be nil")
	}
	if !strings.Contains(CatApprox.String(), "Approximate") {
		t.Error("category name missing")
	}
}

// TestCensusRobustAcrossExtraSeeds re-runs every scenario under a second
// scheduler seed and merges: the classification must stay exactly the
// paper's Table 1 — the benign templates are benign under *any*
// interleaving, and more coverage only adds instances.
func TestCensusRobustAcrossExtraSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run, err := RunSuiteSeeds(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunSuite(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Merged.TotalInstances() <= single.Merged.TotalInstances() {
		t.Errorf("extra seeds did not add instances: %d vs %d",
			run.Merged.TotalInstances(), single.Merged.TotalInstances())
	}
	type cell struct{ rb, rh int }
	byGroup := map[classify.Group]*cell{
		classify.GroupNoStateChange: {}, classify.GroupStateChange: {}, classify.GroupReplayFailure: {},
	}
	for _, r := range run.Merged.Races {
		tm := TemplateOfSite(r.Sites.A)
		if tm == nil {
			t.Fatalf("unknown race %v", r.Sites)
		}
		c := byGroup[r.Group]
		if tm.RealHarmful {
			c.rh++
		} else {
			c.rb++
		}
	}
	if got := byGroup[classify.GroupNoStateChange]; got.rb != 32 || got.rh != 0 {
		t.Errorf("NSC = %d/%d, want 32/0", got.rb, got.rh)
	}
	if got := byGroup[classify.GroupStateChange]; got.rb != 15 || got.rh != 2 {
		t.Errorf("SC = %d/%d, want 15/2", got.rb, got.rh)
	}
	if got := byGroup[classify.GroupReplayFailure]; got.rb != 14 || got.rh != 5 {
		t.Errorf("RF = %d/%d, want 14/5", got.rb, got.rh)
	}
}

func TestServiceScenarioRuns(t *testing.T) {
	s := ServiceScenario()
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	log, mres, _, err := record.Run(prog, s.Config(), record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Deadlocked {
		t.Fatal("service deadlocked")
	}
	for _, th := range mres.Threads {
		if th.Fault != nil {
			t.Fatalf("thread %d faulted: %v", th.ID, th.Fault)
		}
	}
	// acc must equal 4 workers * 120 requests * sum(101..108).
	exec, err := core.AnalyzeLog(log, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var accAddr uint64
	for a := range prog.Data {
		if a > accAddr {
			accAddr = a
		}
	}
	wantReq := 101 + 102 + 103 + 104 + 105 + 106 + 107 + 108
	if got := exec.Exec.FinalMem[accAddr]; got != uint64(4*120*wantReq) {
		t.Errorf("accumulator = %d, want %d", got, 4*120*wantReq)
	}
	// Fully synchronized: no races.
	if len(exec.Races.Races) != 0 {
		t.Errorf("service scenario raced: %v", exec.Races.Races[0].Sites)
	}
}

// TestStressScenarioEndToEnd packs many templates into one oversized
// execution (~40 threads) and runs the full pipeline: a scale check that
// the recorder, replayer, detector, and classifier hold their invariants
// together well beyond the paper-sized scenarios.
func TestStressScenarioEndToEnd(t *testing.T) {
	all := All()
	var ts []Template
	seen := map[string]bool{}
	threads := 0
	for _, tm := range all {
		if threads+len(tm.Workers) > 40 || seen[tm.Name] {
			continue
		}
		seen[tm.Name] = true
		ts = append(ts, tm)
		threads += len(tm.Workers)
	}
	s := Scenario{Name: "stress", Seed: 777, Templates: ts}
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(prog, s.Config(), record.OnlineConfig{}, classify.Options{Scenario: "stress", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Deadlocked {
		t.Fatal("stress scenario deadlocked")
	}
	if len(res.Classification.Races) == 0 {
		t.Fatal("stress scenario found no races")
	}
	for _, r := range res.Classification.Races {
		if r.NSC+r.SC+r.RF != r.Total {
			t.Fatalf("race %v: inconsistent outcome counts", r.Sites)
		}
		tm := TemplateOfSite(r.Sites.A)
		if tm == nil {
			t.Fatalf("race %v: unknown template", r.Sites)
		}
		// A single execution can only under-approximate the cross-suite
		// group; but a no-state-change verdict on a harmful template's
		// race must never happen with exposing instances present.
		if tm.RealHarmful && r.Verdict == classify.PotentiallyBenign && r.Exposing() > 0 {
			t.Fatalf("race %v: exposing instances but benign verdict", r.Sites)
		}
	}
}

// TestBudgetTruncatedLogPipeline: a recording cut off by the step budget
// (threads still running) must flow through replay, detection, and
// classification without error.
func TestBudgetTruncatedLogPipeline(t *testing.T) {
	s := Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.MaxSteps = 400 // far below the scenario's natural length
	res, err := core.Analyze(prog, cfg, record.OnlineConfig{}, classify.Options{Scenario: "truncated"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.TotalSteps < 400 {
		t.Fatalf("budget not exhausted: %d steps", res.Machine.TotalSteps)
	}
	// Classification is total over whatever was recorded.
	for _, r := range res.Classification.Races {
		if r.NSC+r.SC+r.RF != r.Total {
			t.Fatalf("race %v: inconsistent counts on truncated log", r.Sites)
		}
	}
}
