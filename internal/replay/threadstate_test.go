package replay_test

import (
	"repro/internal/replay"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/trace"
)

func TestThreadStateAtMatchesFullReplay(t *testing.T) {
	prog, err := asm.Assemble("rp", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Record twice: with and without key frames. Both logs must answer
	// state queries identically.
	plain, _, _, err := record.Run(prog, machine.Config{Seed: 21}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	framed, _, _, err := record.Run(prog, machine.Config{Seed: 21}, record.OnlineConfig{KeyFrameInterval: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	framedHasFrames := false
	for _, tl := range framed.Threads {
		if len(tl.KeyFrames) > 0 {
			framedHasFrames = true
		}
	}
	if !framedHasFrames {
		t.Fatal("key-frame recording produced no frames")
	}

	for _, tl := range plain.Threads {
		for _, idx := range []uint64{0, tl.Retired / 3, tl.Retired / 2, tl.Retired} {
			a, err := replay.ThreadStateAt(plain, tl.TID, idx)
			if err != nil {
				t.Fatalf("plain tid %d idx %d: %v", tl.TID, idx, err)
			}
			b, err := replay.ThreadStateAt(framed, tl.TID, idx)
			if err != nil {
				t.Fatalf("framed tid %d idx %d: %v", tl.TID, idx, err)
			}
			if a.Cpu.Regs != b.Cpu.Regs || a.Cpu.PC != b.Cpu.PC {
				t.Fatalf("tid %d idx %d: keyframe resume diverged from scratch replay", tl.TID, idx)
			}
			for addr, v := range a.View {
				if b.View[addr] != v {
					t.Fatalf("tid %d idx %d: view differs at 0x%x (%d vs %d)", tl.TID, idx, addr, v, b.View[addr])
				}
			}
		}
		// The final state equals the full replay's.
		full, err := replay.Run(plain, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := replay.ThreadStateAt(framed, tl.TID, tl.Retired)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cpu.Regs != full.Thread(tl.TID).FinalCpu.Regs {
			t.Fatalf("tid %d: final state differs from full replay", tl.TID)
		}
	}
}

func TestThreadStateAtErrors(t *testing.T) {
	prog, err := asm.Assemble("rp", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: 2}, record.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.ThreadStateAt(log, 99, 0); err == nil {
		t.Error("unknown thread accepted")
	}
	if _, err := replay.ThreadStateAt(log, 0, 1<<40); err == nil {
		t.Error("out-of-range idx accepted")
	}
}

func TestKeyFrameLogsSerializeAndValidate(t *testing.T) {
	prog, err := asm.Assemble("rp", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.Run(prog, machine.Config{Seed: 5}, record.OnlineConfig{KeyFrameInterval: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	// Round-trip through serialization preserves frames and replayability.
	raw := trace.Marshal(log)
	log2, err := trace.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range log.Threads {
		if len(log2.Threads[i].KeyFrames) != len(tl.KeyFrames) {
			t.Fatalf("thread %d: frames lost in serialization", tl.TID)
		}
	}
	if _, err := replay.Run(log2, replay.Options{}); err != nil {
		t.Fatal(err)
	}
}
