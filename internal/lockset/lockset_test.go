package lockset

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
)

func analyze(t *testing.T, src string, seed int64) *Report {
	t.Helper()
	prog, err := asm.Assemble("ls", src)
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
	return Detect(exec)
}

const spawnTwo = `
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

func TestConsistentLockingIsClean(t *testing.T) {
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 15
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + spawnTwo
	for seed := int64(1); seed <= 8; seed++ {
		rep := analyze(t, src, seed)
		if len(rep.Warnings) != 0 {
			t.Fatalf("seed %d: consistent locking produced %d warnings (first at %s)",
				seed, len(rep.Warnings), rep.Warnings[0].Site)
		}
		if rep.Checked == 0 {
			t.Fatalf("seed %d: shared counter never reached shared state", seed)
		}
	}
}

func TestUnlockedSharedCounterWarns(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 15
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + spawnTwo
	warned := false
	for seed := int64(1); seed <= 8 && !warned; seed++ {
		rep := analyze(t, src, seed)
		warned = len(rep.Warnings) > 0
	}
	if !warned {
		t.Error("unlocked shared counter never warned")
	}
}

func TestTwoLocksInconsistentlyUsedWarn(t *testing.T) {
	// Worker A protects n with mu1, worker B with mu2: candidate set
	// empties even though every access is "locked".
	src := `
.entry main
.word mu1 0
.word mu2 0
.word n 0
workerA:
  ldi r2, 10
aloop:
  ldi r3, mu1
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, aloop
  ldi r1, 0
  sys exit
workerB:
  ldi r2, 10
bloop:
  ldi r3, mu2
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, bloop
  ldi r1, 0
  sys exit
main:
  ldi r1, workerA
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, workerB
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`
	warned := false
	for seed := int64(1); seed <= 8 && !warned; seed++ {
		rep := analyze(t, src, seed)
		warned = len(rep.Warnings) > 0
	}
	if !warned {
		t.Error("inconsistent two-lock discipline never warned")
	}
}

func TestForkJoinSharingIsAFalsePositive(t *testing.T) {
	// Parent writes before spawn; child writes; parent reads after join.
	// Perfectly ordered by fork/join (hb reports nothing), but no lock is
	// ever held: Eraser warns. This is the classic lockset false positive.
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
	rep := analyze(t, src, 3)
	if len(rep.Warnings) == 0 {
		t.Error("fork/join sharing should be a lockset false positive")
	}
}

func TestSingleThreadNeverWarns(t *testing.T) {
	src := `
.word g 0
main:
  ldi r2, g
  ldi r1, 30
loop:
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  addi r1, r1, -1
  bne r1, r0, loop
  halt
`
	rep := analyze(t, src, 1)
	if len(rep.Warnings) != 0 {
		t.Error("single-threaded program warned")
	}
	if rep.Checked != 0 {
		t.Error("nothing should reach shared state")
	}
}

func TestReadSharedDataDoesNotWarn(t *testing.T) {
	// Both workers only read g after the parent initialized it pre-spawn:
	// read-shared data stays in Shared, no warning.
	src := `
.entry main
.word g 41
worker:
  ldi r2, g
  ld r3, [r2+0]
  ld r4, [r2+0]
  ldi r1, 0
  sys exit
` + spawnTwo
	for seed := int64(1); seed <= 6; seed++ {
		rep := analyze(t, src, seed)
		if len(rep.Warnings) != 0 {
			t.Fatalf("seed %d: read-only sharing warned", seed)
		}
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Virgin, Exclusive, Shared, SharedModified} {
		if s.String() == "state(?)" {
			t.Errorf("state %d unnamed", s)
		}
	}
}
