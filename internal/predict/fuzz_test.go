package predict_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
)

// FuzzPredict steers the prediction pass over arbitrary well-formed
// generated programs. Three contracts are under test: totality (the
// window solver must never panic and must terminate — every loop is
// bounded by the region count or the window), determinism (the same
// execution predicted twice yields the same report), and subsumption
// (every race the strict happens-before detector observed must appear
// among the predicted candidates, since an observed overlap is its own
// witness). The shape encoding is shared with progen.FuzzPipeline so a
// crasher found against the dynamic pipeline replays here directly.
func FuzzPredict(f *testing.F) {
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
		log, _, _, err := record.Run(prog, machine.Config{Seed: genSeed}, record.OnlineConfig{}, nil)
		if err != nil {
			t.Skipf("recording failed: %v", err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatalf("replay diverged: %v", err)
		}
		rep := predict.Run(exec, predict.Options{})
		if rep == nil {
			t.Fatal("Run returned nil report")
		}
		predicted := map[hb.SitePair]bool{}
		for _, c := range rep.Candidates {
			predicted[c.Sites] = true
		}
		observed := hb.Detect(exec)
		for _, race := range observed.Races {
			if !predicted[race.Sites] {
				t.Fatalf("observed race %s not among %d predicted candidates",
					race.Sites, len(rep.Candidates))
			}
		}
		again := predict.Run(exec, predict.Options{})
		if !reflect.DeepEqual(rep, again) {
			t.Fatal("Run is not deterministic on the same execution")
		}
	})
}
