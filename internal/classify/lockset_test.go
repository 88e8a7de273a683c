package classify

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
)

func triageSrc(t *testing.T, src string, seed int64) ([]LocksetTriage, *lockset.Report) {
	t.Helper()
	prog, err := asm.Assemble("lt", src)
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
	rep := lockset.Detect(exec)
	return TriageLockset(exec, rep, Options{}), rep
}

// The classic lockset false positive: fork/join sharing with no lock.
// The replay checker must discover that every conflicting pair is ordered
// by a sequencer and dismiss the warning.
func TestTriageFiltersForkJoinFalsePositive(t *testing.T) {
	src := `
.entry main
.word g 0
child:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 5
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r2, g
  ldi r3, 1
  st [r2+0], r3
  ldi r1, child
  ldi r2, 0
  sys spawn
  sys join
  ldi r2, g
  ld r4, [r2+0]
  addi r4, r4, 1
  st [r2+0], r4
  halt
`
	triage, rep := triageSrc(t, src, 3)
	if len(rep.Warnings) == 0 {
		t.Fatal("setup: lockset should warn on fork/join sharing")
	}
	for _, tr := range triage {
		if tr.Verdict != LocksetFalsePositive {
			t.Errorf("warning at 0x%x: verdict %v (ordered %d, racy %d), want false-positive",
				tr.Warning.Addr, tr.Verdict, tr.OrderedPairs, tr.RacyInstances)
		}
		if tr.OrderedPairs == 0 {
			t.Errorf("warning at 0x%x: no ordered pairs recorded", tr.Warning.Addr)
		}
	}
}

// A redundant-write race: lockset warns, the races are real but harmless.
func TestTriageClassifiesBenignWarning(t *testing.T) {
	src := `
.entry main
.word g 5
worker:
  ldi r2, g
  ldi r3, 5
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
	sawBenign := false
	for seed := int64(1); seed <= 20 && !sawBenign; seed++ {
		triage, _ := triageSrc(t, src, seed)
		for _, tr := range triage {
			if tr.Verdict == LocksetBenign && tr.RacyInstances > 0 {
				sawBenign = true
				if tr.SC != 0 || tr.RF != 0 {
					t.Errorf("benign verdict with exposing instances")
				}
			}
			if tr.Verdict == LocksetHarmful {
				t.Errorf("redundant write triaged harmful (nsc=%d sc=%d rf=%d)", tr.NSC, tr.SC, tr.RF)
			}
		}
	}
	if !sawBenign {
		t.Error("lockset warning never triaged benign with racy instances")
	}
}

// A genuine lost update: lockset warns and the replay checker confirms.
func TestTriageConfirmsHarmfulWarning(t *testing.T) {
	src := `
.entry main
.word g 0
worker:
  ldi r2, g
  addi r3, r1, 10
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
	sawHarmful := false
	for seed := int64(1); seed <= 20 && !sawHarmful; seed++ {
		triage, _ := triageSrc(t, src, seed)
		for _, tr := range triage {
			if tr.Verdict == LocksetHarmful {
				sawHarmful = true
			}
		}
	}
	if !sawHarmful {
		t.Error("conflicting writers never triaged harmful from a lockset warning")
	}
}

func TestLocksetVerdictStrings(t *testing.T) {
	for _, v := range []LocksetVerdict{LocksetFalsePositive, LocksetBenign, LocksetHarmful} {
		if v.String() == "verdict(?)" {
			t.Errorf("verdict %d unnamed", v)
		}
	}
	_ = hb.SitePair{}
}
