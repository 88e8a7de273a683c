package hb_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
)

// TestPaperFigure1Structure mirrors the paper's Figure 1: three threads
// whose sequencers partition their executions into regions, where region
// overlap — not thread identity — decides which memory operations race.
//
// T1 writes g inside one sequencing region; T2 reads g in a region that
// overlaps it (unordered: race) and T3 reads g in a region that starts
// only after T1's region closed (ordered by the sequencer order: no
// race), even though neither T2 nor T3 synchronizes with T1 via locks.
func TestPaperFigure1Structure(t *testing.T) {
	// Round-robin with quantum 1 makes the interleaving exact: threads
	// advance one instruction at a time in spawn order.
	src := `
.entry main
.word g 0
.word gate 0
t1:
  fence              ; S: opens T1's writing region
  ldi r2, g
  ldi r3, 9
t1w:
  st [r2+0], r3
  fence              ; S: closes the writing region
  ldi r2, gate       ; signal t3 that the region is over
  ldi r3, 1
  st [r2+0], r3
  ldi r1, 0
  sys exit
t2:
  ldi r2, g
t2r:
  ld r4, [r2+0]      ; in a region overlapping T1's write region
  ldi r1, 0
  sys exit
t3:
  ldi r2, gate
t3wait:
  ld r5, [r2+0]
  beq r5, r0, t3wait ; wait until T1's write region has closed...
  fence              ; ...then open a fresh region
  ldi r2, g
t3r:
  ld r6, [r2+0]      ; this region starts after T1's closed: ordered
  ldi r1, 0
  sys exit
main:
  ldi r1, t1
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, t2
  ldi r2, 0
  sys spawn
  mov r9, r1
  ldi r1, t3
  ldi r2, 0
  sys spawn
  mov r10, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  mov r1, r10
  sys join
  halt
`
	prog, err := asm.Assemble("fig1", src)
	if err != nil {
		t.Fatal(err)
	}
	// Scan seeds for a recording where T2's read physically overlapped
	// T1's write region — the configuration Figure 1 draws.
	for seed := int64(1); seed <= 40; seed++ {
		log, _, _, err := record.Run(prog, machine.Config{Seed: seed}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := hb.Detect(exec)
		var t2Races, t3Races bool
		for _, race := range rep.Races {
			s := race.Sites.String()
			if containsAll(s, "t1w", "t2r") {
				t2Races = true
			}
			if containsAll(s, "t1w", "t3r") {
				t3Races = true
			}
		}
		// The gate handshake also races (benign user-sync); only the
		// g-accesses matter here.
		if t3Races {
			t.Fatalf("seed %d: T3's read raced with T1's write despite the sequencer order", seed)
		}
		if t2Races {
			// Also confirm the region intervals say what the paper says:
			// the racing pair sits in overlapping regions, and T3's read
			// region starts at or after T1's write region ended.
			race := findRace(rep, "t1w", "t2r")
			inst := race.Instances[0]
			if !inst.RegionA.Overlaps(inst.RegionB) {
				t.Fatal("racing regions do not overlap")
			}
			t3reg := findRegionReading(exec, "fig1:t3r")
			t1reg := inst.RegionA
			if t1reg.TID != 1 {
				t1reg = inst.RegionB
			}
			if t3reg != nil && t3reg.StartTS < t1reg.EndTS {
				t.Fatal("T3's read region began before T1's write region closed")
			}
			return // Figure 1 structure confirmed
		}
	}
	t.Fatal("no seed produced the Figure 1 overlap configuration")
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func findRace(rep *hb.Report, subA, subB string) *hb.Race {
	for _, race := range rep.Races {
		if containsAll(race.Sites.String(), subA, subB) {
			return race
		}
	}
	return nil
}

func findRegionReading(exec *replay.Execution, site string) *replay.Region {
	for _, reg := range exec.Regions {
		for _, acc := range reg.Accesses {
			if exec.Prog.SiteOf(acc.PC) == site {
				return reg
			}
		}
	}
	return nil
}
