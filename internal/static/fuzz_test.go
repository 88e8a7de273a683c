package static

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/progen"
)

// FuzzAnalyze steers the static analyzer over arbitrary well-formed
// program shapes. The contract under test is totality: Analyze must
// never panic and must terminate on every input (the entry-discovery
// fixpoint and the per-entry worklists are all explicitly bounded), and
// it must be deterministic — the same program analyzed twice yields the
// same report. The shape encoding is shared with progen.FuzzPipeline so
// a crasher found against the dynamic pipeline replays here directly.
func FuzzAnalyze(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(255))
	f.Add(int64(-3), uint8(0b10101))
	f.Add(int64(7), uint8(1<<5))
	f.Add(int64(99), uint8(1<<6|1<<7))
	f.Fuzz(func(t *testing.T, genSeed int64, cfgBits uint8) {
		r := rand.New(rand.NewSource(genSeed))
		cfg := progen.BitsConfig(cfgBits, r)
		src := progen.Generate(r, cfg)
		prog, err := asm.Assemble("fz", src)
		if err != nil {
			t.Fatalf("generated program failed to assemble: %v", err)
		}
		rep := Analyze(prog, nil)
		if rep == nil {
			t.Fatal("Analyze returned nil report")
		}
		if rep.Stats.Instrs != len(prog.Code) {
			t.Fatalf("Stats.Instrs = %d, want %d", rep.Stats.Instrs, len(prog.Code))
		}
		for i := 1; i < len(rep.Candidates); i++ {
			a, b := rep.Candidates[i-1], rep.Candidates[i]
			if a.SiteA > b.SiteA || (a.SiteA == b.SiteA && a.SiteB > b.SiteB) {
				t.Fatalf("candidates not sorted: %q/%q before %q/%q",
					a.SiteA, a.SiteB, b.SiteA, b.SiteB)
			}
		}
		again := Analyze(prog, nil)
		if !reflect.DeepEqual(rep, again) {
			t.Fatal("Analyze is not deterministic on the same program")
		}
	})
}
