package classify

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/vproc"
)

func classifySrc(t *testing.T, src string, seed int64, opts Options) *Classification {
	t.Helper()
	prog, err := asm.Assemble("cl", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = seed
	return Run(exec, hb.Detect(exec), opts)
}

const redundantWriters = `
.entry main
.word g 5
worker:
  ldi r2, g
  ldi r3, 5
wstore:
  st [r2+0], r3
  ld r4, [r2+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

const conflictingWriters = `
.entry main
.word g 0
worker:
  ldi r2, g
  addi r3, r1, 10    ; distinct value per worker (arg 0/1)
wstore:
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

// seedWithRaces scans seeds until the program exhibits at least one race.
func seedWithRaces(t *testing.T, src string, opts Options) *Classification {
	t.Helper()
	for seed := int64(1); seed <= 30; seed++ {
		cls := classifySrc(t, src, seed, opts)
		if len(cls.Races) > 0 {
			return cls
		}
	}
	t.Fatal("no seed produced races")
	return nil
}

func TestRedundantWritersClassifyBenign(t *testing.T) {
	cls := seedWithRaces(t, redundantWriters, Options{Scenario: "redundant"})
	for _, r := range cls.Races {
		if r.Verdict != PotentiallyBenign {
			t.Errorf("%v: verdict = %v (group %v, counts nsc=%d sc=%d rf=%d)",
				r.Sites, r.Verdict, r.Group, r.NSC, r.SC, r.RF)
		}
		if r.Total != r.NSC {
			t.Errorf("%v: expected all instances NSC", r.Sites)
		}
	}
	benign, harmful := cls.CountByVerdict()
	if benign == 0 || harmful != 0 {
		t.Errorf("counts = (%d benign, %d harmful)", benign, harmful)
	}
}

func TestConflictingWritersClassifyHarmful(t *testing.T) {
	// Two workers store different values: some instance must expose a
	// state change, making the race potentially harmful.
	found := false
	for seed := int64(1); seed <= 30 && !found; seed++ {
		cls := classifySrc(t, conflictingWriters, seed, Options{Scenario: "conflict"})
		for _, r := range cls.Races {
			if r.Verdict == PotentiallyHarmful && r.SC > 0 {
				found = true
				if r.Group != GroupStateChange {
					t.Errorf("group = %v, want state-change", r.Group)
				}
				if len(r.Samples) == 0 {
					t.Error("harmful race should retain samples")
				}
			}
		}
	}
	if !found {
		t.Error("conflicting writers never classified harmful")
	}
}

func TestSamplesCarryReproductionCoordinates(t *testing.T) {
	cls := seedWithRaces(t, redundantWriters, Options{Scenario: "repro-check"})
	r := cls.Races[0]
	if len(r.Samples) == 0 {
		t.Fatal("no samples")
	}
	s := r.Samples[0]
	if s.Scenario != "repro-check" {
		t.Errorf("scenario = %q", s.Scenario)
	}
	if s.TIDA == s.TIDB {
		t.Error("racing threads must differ")
	}
	if s.Addr == 0 {
		t.Error("sample should carry the racing address")
	}
}

func TestMaxInstancesPerRaceBounds(t *testing.T) {
	// Force many instances by looping the redundant writer.
	src := `
.entry main
.word g 5
worker:
  ldi r5, 10
wloop:
  ldi r2, g
  ldi r3, 5
wstore:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`
	for seed := int64(1); seed <= 20; seed++ {
		full := classifySrc(t, src, seed, Options{})
		if full.TotalInstances() < 3 {
			continue
		}
		capped := classifySrc(t, src, seed, Options{MaxInstancesPerRace: 2})
		for _, r := range capped.Races {
			if r.Total > 2 {
				t.Errorf("race %v analyzed %d instances, cap was 2", r.Sites, r.Total)
			}
		}
		return
	}
	t.Skip("no seed with enough instances")
}

func TestMergeAccumulatesAcrossExecutions(t *testing.T) {
	var parts []*Classification
	for seed := int64(1); seed <= 6; seed++ {
		parts = append(parts, classifySrc(t, redundantWriters, seed, Options{Scenario: "m"}))
	}
	merged := Merge(parts...)
	sum := 0
	for _, p := range parts {
		sum += p.TotalInstances()
	}
	if merged.TotalInstances() != sum {
		t.Errorf("merged instances = %d, want %d", merged.TotalInstances(), sum)
	}
	// The same static race in different runs must fold into one entry.
	sites := make(map[string]bool)
	for _, r := range merged.Races {
		if sites[r.Sites.String()] {
			t.Error("duplicate race after merge")
		}
		sites[r.Sites.String()] = true
	}
}

func TestMergeEscalatesVerdict(t *testing.T) {
	// A race NSC in one execution but SC in another must end up harmful
	// (the paper's cross-testcase re-classification, §1).
	a := &Classification{Races: []*RaceResult{{
		Sites: hb.MakeSitePair("x", "y"), Total: 3, NSC: 3,
	}}}
	b := &Classification{Races: []*RaceResult{{
		Sites: hb.MakeSitePair("x", "y"), Total: 2, NSC: 1, SC: 1,
	}}}
	a.Races[0].recompute()
	b.Races[0].recompute()
	if a.Races[0].Verdict != PotentiallyBenign {
		t.Fatal("setup: a should be benign")
	}
	m := Merge(a, b)
	r := m.Race(hb.MakeSitePair("x", "y"))
	if r == nil || r.Verdict != PotentiallyHarmful || r.Group != GroupStateChange {
		t.Errorf("merged = %+v, want harmful state-change", r)
	}
	if r.Total != 5 || r.NSC != 4 || r.SC != 1 {
		t.Errorf("counts = %d/%d/%d", r.Total, r.NSC, r.SC)
	}
}

func TestReplayFailureGroupWinsOverNSCOnly(t *testing.T) {
	r := &RaceResult{Sites: hb.MakeSitePair("a", "b"), Total: 4, NSC: 3, RF: 1}
	r.recompute()
	if r.Group != GroupReplayFailure || r.Verdict != PotentiallyHarmful {
		t.Errorf("group = %v verdict = %v", r.Group, r.Verdict)
	}
	if r.Exposing() != 1 {
		t.Errorf("exposing = %d", r.Exposing())
	}
}

func TestDBSuppression(t *testing.T) {
	db := NewDB()
	cls := seedWithRaces(t, conflictingWriters, Options{DB: db})
	_, harmfulBefore := cls.CountByVerdict()

	// Mark everything benign and re-classify.
	for _, r := range cls.Races {
		db.MarkBenign(r.Sites, "triage: statistics counter, tolerated")
	}
	cls2 := seedWithRaces(t, conflictingWriters, Options{DB: db})
	_, harmfulAfter := cls2.CountByVerdict()
	if harmfulBefore == 0 {
		t.Skip("no harmful race to suppress on these seeds")
	}
	if harmfulAfter != 0 {
		t.Errorf("suppression left %d harmful races", harmfulAfter)
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "races.json")
	db := NewDB()
	db.MarkBenign(hb.MakeSitePair("p:a", "p:b"), "stats counter")
	db.MarkHarmful(hb.MakeSitePair("p:c", "p:d"), "refcount bug")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsMarkedBenign(hb.MakeSitePair("p:a", "p:b")) {
		t.Error("benign mark lost")
	}
	if got.IsMarkedBenign(hb.MakeSitePair("p:c", "p:d")) {
		t.Error("harmful mark misread as benign")
	}
	if len(got.Marks()) != 2 {
		t.Errorf("marks = %d, want 2", len(got.Marks()))
	}
}

func TestLoadDBMissingFileIsEmpty(t *testing.T) {
	db, err := LoadDB(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Marks()) != 0 {
		t.Error("missing file should load empty")
	}
}

func TestLoadDBRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDB(path); err == nil {
		t.Error("garbage db accepted")
	}
}

func TestStringsForEnums(t *testing.T) {
	if GroupNoStateChange.String() == "" || GroupStateChange.String() == "" || GroupReplayFailure.String() == "" {
		t.Error("group strings empty")
	}
	if PotentiallyBenign.String() == PotentiallyHarmful.String() {
		t.Error("verdict strings collide")
	}
	if !strings.Contains(Group(9).String(), "9") {
		t.Error("unknown group should render numerically")
	}
}

func TestOutcomeCountsMatchVerdict(t *testing.T) {
	// Property over synthetic count vectors: verdict is benign iff SC and
	// RF are zero.
	for sc := 0; sc <= 2; sc++ {
		for rf := 0; rf <= 2; rf++ {
			r := &RaceResult{Total: 3 + sc + rf, NSC: 3, SC: sc, RF: rf}
			r.recompute()
			wantBenign := sc == 0 && rf == 0
			if (r.Verdict == PotentiallyBenign) != wantBenign {
				t.Errorf("sc=%d rf=%d verdict=%v", sc, rf, r.Verdict)
			}
		}
	}
	_ = vproc.NoStateChange // keep import honest
}

func TestConfidenceGrading(t *testing.T) {
	cases := []struct {
		total, sc int
		want      string
	}{
		{1, 0, "low"},
		{3, 0, "medium"},
		{10, 0, "high"},
		{50, 0, "high"},
		{2, 1, "confirmed"},
	}
	for _, c := range cases {
		r := &RaceResult{Total: c.total, NSC: c.total - c.sc, SC: c.sc}
		r.recompute()
		if got := r.Confidence(); got != c.want {
			t.Errorf("total=%d sc=%d: confidence = %q, want %q", c.total, c.sc, got, c.want)
		}
	}
}

func randClassification(r *rand.Rand) *Classification {
	c := &Classification{}
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		rr := &RaceResult{
			Sites: hb.MakeSitePair(
				fmt.Sprintf("p:s%d", r.Intn(4)),
				fmt.Sprintf("p:t%d", r.Intn(4))),
			NSC: r.Intn(5), SC: r.Intn(3), RF: r.Intn(3),
		}
		rr.Total = rr.NSC + rr.SC + rr.RF
		if rr.Total == 0 {
			rr.NSC, rr.Total = 1, 1
		}
		rr.recompute()
		// Dedup within one classification (Merge assumes unique sites
		// per part, as Run produces).
		if c.Race(rr.Sites) == nil {
			c.Races = append(c.Races, rr)
		}
	}
	return c
}

// TestMergeAlgebra: merging is order-insensitive and the counts are
// conserved — cross-execution aggregation cannot depend on which test
// scenario was analyzed first.
func TestMergeAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randClassification(r), randClassification(r), randClassification(r)
		ab_c := Merge(Merge(a, b), c)
		a_bc := Merge(a, Merge(b, c))
		cba := Merge(c, b, a)
		if len(ab_c.Races) != len(a_bc.Races) || len(ab_c.Races) != len(cba.Races) {
			return false
		}
		for _, x := range ab_c.Races {
			y, z := a_bc.Race(x.Sites), cba.Race(x.Sites)
			if y == nil || z == nil {
				return false
			}
			if x.Total != y.Total || x.Total != z.Total ||
				x.NSC != y.NSC || x.SC != y.SC || x.RF != y.RF ||
				x.Group != y.Group || x.Group != z.Group {
				return false
			}
		}
		// Conservation: merged totals equal the sum of the parts.
		sum := a.TotalInstances() + b.TotalInstances() + c.TotalInstances()
		return ab_c.TotalInstances() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeIgnoresNilParts(t *testing.T) {
	a := &Classification{Races: []*RaceResult{{Sites: hb.MakeSitePair("a", "b"), Total: 1, NSC: 1}}}
	m := Merge(nil, a, nil)
	if len(m.Races) != 1 || m.TotalInstances() != 1 {
		t.Errorf("merge with nils = %+v", m)
	}
}

// TestSampleRetentionKeepsLaterKindsWithRoom is the regression test for
// the keep condition that contradicted its own comment: once an SC/RF
// sample existed, later No-State-Change instances were never sampled
// even with room under MaxSamplesPerRace.
func TestSampleRetentionKeepsLaterKindsWithRoom(t *testing.T) {
	rr := &RaceResult{}
	kinds := make(map[vproc.Outcome]int)
	for _, o := range []vproc.Outcome{vproc.StateChange, vproc.NoStateChange, vproc.NoStateChange} {
		rr.keepSample(kinds, 4, InstanceSample{Outcome: o})
	}
	if len(rr.Samples) != 3 {
		t.Fatalf("retained %d samples, want 3 (room under the cap must keep filling)", len(rr.Samples))
	}
	nsc := 0
	for _, s := range rr.Samples {
		if s.Outcome == vproc.NoStateChange {
			nsc++
		}
	}
	if nsc != 2 {
		t.Errorf("retained %d NSC samples, want 2", nsc)
	}
}

// TestSampleRetentionEvictsDuplicateForNewKind: with the buffer full, a
// first instance of an unrepresented outcome kind replaces a duplicate
// of an over-represented kind, so every kind seen keeps one sample.
func TestSampleRetentionEvictsDuplicateForNewKind(t *testing.T) {
	rr := &RaceResult{}
	kinds := make(map[vproc.Outcome]int)
	for i := 0; i < 4; i++ {
		rr.keepSample(kinds, 4, InstanceSample{Outcome: vproc.NoStateChange, IdxA: uint64(i)})
	}
	rr.keepSample(kinds, 4, InstanceSample{Outcome: vproc.StateChange})
	rr.keepSample(kinds, 4, InstanceSample{Outcome: vproc.ReplayFailure})
	if len(rr.Samples) != 4 {
		t.Fatalf("retained %d samples, want the cap of 4", len(rr.Samples))
	}
	got := map[vproc.Outcome]int{}
	for _, s := range rr.Samples {
		got[s.Outcome]++
	}
	if got[vproc.NoStateChange] != 2 || got[vproc.StateChange] != 1 || got[vproc.ReplayFailure] != 1 {
		t.Errorf("retained kinds = %v, want 2 NSC + 1 SC + 1 RF", got)
	}
	// Another duplicate of a represented kind is dropped once full.
	rr.keepSample(kinds, 4, InstanceSample{Outcome: vproc.StateChange, IdxA: 99})
	for _, s := range rr.Samples {
		if s.IdxA == 99 {
			t.Error("duplicate of a represented kind displaced a sample")
		}
	}
}

// TestNegativeParallelRunsSerially: Options.Parallel below zero is
// normalized (via sched.Normalize) instead of spinning up a bogus pool,
// and the result matches the serial classification.
func TestNegativeParallelRunsSerially(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		serial := classifySrc(t, redundantWriters, seed, Options{})
		neg := classifySrc(t, redundantWriters, seed, Options{Parallel: -7})
		if len(serial.Races) != len(neg.Races) {
			t.Fatalf("seed %d: race counts differ", seed)
		}
		for i := range serial.Races {
			a, b := serial.Races[i], neg.Races[i]
			if a.Sites != b.Sites || a.NSC != b.NSC || a.SC != b.SC || a.RF != b.RF {
				t.Fatalf("seed %d: race %v differs under negative Parallel", seed, a.Sites)
			}
		}
	}
}

// TestParallelClassificationIsIdentical: the parallel path must be
// bit-identical to serial (instances are independent and results are
// aggregated by index).
func TestParallelClassificationIsIdentical(t *testing.T) {
	src := `
.entry main
.word g 0
worker:
  ldi r5, 8
wloop:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
wst:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`
	for seed := int64(1); seed <= 6; seed++ {
		serial := classifySrc(t, src, seed, Options{})
		par := classifySrc(t, src, seed, Options{Parallel: 8})
		if len(serial.Races) != len(par.Races) {
			t.Fatalf("seed %d: race counts differ", seed)
		}
		for i := range serial.Races {
			a, b := serial.Races[i], par.Races[i]
			if a.Sites != b.Sites || a.NSC != b.NSC || a.SC != b.SC || a.RF != b.RF || a.Group != b.Group {
				t.Fatalf("seed %d: race %v differs: serial %d/%d/%d vs parallel %d/%d/%d",
					seed, a.Sites, a.NSC, a.SC, a.RF, b.NSC, b.SC, b.RF)
			}
		}
	}
}
