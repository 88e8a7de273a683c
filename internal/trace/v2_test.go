package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

// richLog builds a multi-thread log exercising every v2 encoding: sparse
// registers, signed address deltas over spread-out addresses, sequencers
// with and without aux payloads, key frames, a fault record.
func richLog() *Log {
	p := isa.NewProgram("rich")
	p.Code = []isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 5},
		{Op: isa.OpSys, Imm: isa.SysPrint},
		{Op: isa.OpHalt},
	}
	p.Symbols["main"] = 0
	p.Symbols["worker"] = 1
	p.Data[isa.DataBase] = 11
	p.Data[isa.DataBase+64] = 7
	log := &Log{Prog: p, Seed: -3, FinalClock: 40, TotalSteps: 120}
	for tid := 0; tid < 3; tid++ {
		t := &ThreadLog{
			TID:     tid,
			StartTS: uint64(tid),
			EndTS:   uint64(30 + tid),
			InitPC:  tid,
			Retired: 40,
			Seqs: []Sequencer{
				{Idx: 0, TS: uint64(tid*10 + 1), Kind: SeqStart, Aux: -1},
				{Idx: 5, TS: uint64(tid*10 + 2), Kind: SeqSyscall, Aux: isa.SysPrint},
				{Idx: 9, TS: uint64(tid*10 + 3), Kind: SeqLock, Aux: 0},
				{Idx: 40, TS: uint64(tid*10 + 4), Kind: SeqEnd, Aux: -1},
			},
			SysRets:   []SysRec{{Idx: 5, Res: uint64(tid)}},
			EndReason: EndHalted,
		}
		t.InitRegs[isa.SP] = isa.StackTop(tid)
		t.InitRegs[3] = uint64(tid) * 1000
		base := uint64(0x7f00_1234_0000) + uint64(tid)<<20
		for i := 0; i < 20; i++ {
			t.Loads = append(t.Loads, LoadRec{
				Idx:  uint64(i * 2),
				Addr: base + uint64((i%5)*8),
				Val:  uint64(i) * 2654435761,
			})
		}
		t.KeyFrames = []KeyFrame{{
			Idx: 20, PC: 1,
			View: []LoadRec{{Addr: base, Val: 1}, {Addr: base + 8, Val: 2}},
		}}
		t.KeyFrames[0].Regs[2] = 99
		log.Threads = append(log.Threads, t)
	}
	log.Threads[2].EndReason = EndFaulted
	log.Threads[2].Fault = &FaultRec{Kind: 1, PC: 2, Addr: 0xdead}
	return log
}

// logsEqual compares two logs by their canonical v1 serialization.
func logsEqual(a, b *Log) bool { return bytes.Equal(Marshal(a), Marshal(b)) }

func TestV2RoundTrip(t *testing.T) {
	log := richLog()
	got, faults, err := DecodeV2(MarshalV2(log), V2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("unexpected faults %v", faults)
	}
	if !logsEqual(got, log) {
		t.Error("decoded log differs from original")
	}
}

func TestV2SampleLogRoundTrip(t *testing.T) {
	log := sampleLog()
	got, err := Decode(MarshalV2(log))
	if err != nil {
		t.Fatal(err)
	}
	if !logsEqual(got, log) {
		t.Error("decoded log differs from original")
	}
}

func TestV2ParallelDecodeIdentical(t *testing.T) {
	log := richLog()
	data := MarshalV2(log)
	serial, _, err := DecodeV2(data, V2Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		par, _, err := DecodeV2(data, V2Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !logsEqual(serial, par) {
			t.Errorf("jobs=%d: parallel decode differs from serial", jobs)
		}
	}
}

func TestDecodeSniffsFormats(t *testing.T) {
	log := sampleLog()
	want := Marshal(log)
	cases := map[string][]byte{
		"v1-container": Compress(Marshal(log)),
		"v1-raw":       Marshal(log),
		"v2":           MarshalV2(log),
	}
	for name, data := range cases {
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(Marshal(got), want) {
			t.Errorf("%s: decoded log differs", name)
		}
	}
	if _, err := Decode([]byte("NOTAMAGIC-AT-ALL")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("garbage: got %v, want ErrBadMagic", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty: got %v, want ErrBadMagic", err)
	}
}

func TestSniffFormat(t *testing.T) {
	log := sampleLog()
	if f := SniffFormat(Compress(Marshal(log))); f != FormatV1 {
		t.Errorf("container: %q", f)
	}
	if f := SniffFormat(Marshal(log)); f != FormatV1 {
		t.Errorf("raw: %q", f)
	}
	if f := SniffFormat(MarshalV2(log)); f != FormatV2 {
		t.Errorf("v2: %q", f)
	}
	if f := SniffFormat([]byte("junk")); f != FormatUnknown {
		t.Errorf("junk: %q", f)
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"v1", "v2"} {
		f, err := ParseFormat(s)
		if err != nil || string(f) != s {
			t.Errorf("ParseFormat(%q) = %v, %v", s, f, err)
		}
	}
	if _, err := ParseFormat("v3"); err == nil {
		t.Error("ParseFormat accepted v3")
	}
}

func TestWriteFormatRoundTrip(t *testing.T) {
	log := richLog()
	for _, f := range []Format{FormatV1, FormatV2} {
		var buf bytes.Buffer
		if err := WriteFormat(&buf, log, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !logsEqual(got, log) {
			t.Errorf("%s: round trip differs", f)
		}
	}
}

// TestV2AuxRoundTrip pins the aux-presence flag: a non-syscall sequencer
// with a meaningful aux survives, and the common aux=-1 case costs no
// byte.
func TestV2AuxRoundTrip(t *testing.T) {
	log := sampleLog()
	log.Threads[0].Seqs[1] = Sequencer{Idx: 1, TS: 1, Kind: SeqAtomic, Aux: 7}
	got, err := Decode(MarshalV2(log))
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Threads[0].Seqs[1]; s.Kind != SeqAtomic || s.Aux != 7 {
		t.Errorf("aux sequencer mangled: %+v", s)
	}
}

func TestV2TruncationsRejectedTyped(t *testing.T) {
	data := MarshalV2(richLog())
	for n := 0; n < len(data); n++ {
		log, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix %d/%d decoded (%d threads)", n, len(data), len(log.Threads))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

func TestV2ByteFlipsRejectedOrValidTyped(t *testing.T) {
	orig := MarshalV2(richLog())
	for i := 0; i < len(orig); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			data := append([]byte(nil), orig...)
			data[i] ^= bit
			log, _, err := DecodeV2(data, V2Options{QuarantineThreads: true})
			if err == nil {
				if verr := log.Validate(); verr != nil {
					t.Fatalf("flip %d: accepted invalid log: %v", i, verr)
				}
				continue
			}
			var de *DecodeError
			var ve *ValidateError
			if !errors.As(err, &de) && !errors.As(err, &ve) {
				t.Fatalf("flip %d: untyped error %v", i, err)
			}
		}
	}
}

// TestV2ThreadQuarantine corrupts one thread's segment payload: strict
// decode condemns the log, quarantine decode drops exactly that thread
// and keeps the rest.
func TestV2ThreadQuarantine(t *testing.T) {
	log := richLog()
	data := MarshalV2(log)
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the last thread's payload.
	e := idx.entries[3]
	pos := idx.areaStart + int(e.off) + int(e.encLen)/2
	bad := append([]byte(nil), data...)
	bad[pos] ^= 0x55

	if _, _, err := DecodeV2(bad, V2Options{}); err == nil {
		t.Fatal("strict decode accepted a corrupt segment")
	}
	got, faults, err := DecodeV2(bad, V2Options{QuarantineThreads: true})
	if err != nil {
		t.Fatalf("quarantine decode failed: %v", err)
	}
	if len(faults) != 1 || faults[0].Segment != 3 || faults[0].TID != 2 {
		t.Fatalf("faults = %v, want segment 3 thread 2", faults)
	}
	if !errors.Is(faults[0].Err, errChecksum) {
		t.Errorf("fault error = %v, want checksum mismatch", faults[0].Err)
	}
	if len(got.Threads) != 2 || got.Thread(2) != nil {
		t.Fatalf("salvaged log has wrong threads: %d", len(got.Threads))
	}
	// The surviving threads decode identically to the intact container.
	want, _ := Decode(data)
	want.Threads = want.Threads[:2]
	if !logsEqual(got, want) {
		t.Error("surviving threads differ from intact decode")
	}
}

// TestV2IndexCorruptionFailsLog: damage to the header or index is never
// salvageable — quarantine mode still rejects the whole log.
func TestV2IndexCorruptionFailsLog(t *testing.T) {
	data := MarshalV2(richLog())
	for _, pos := range []int{8, 13, v2HeaderLen + 2, v2HeaderLen + v2IndexEntryLen + 16} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0xff
		if _, _, err := DecodeV2(bad, V2Options{QuarantineThreads: true}); err == nil {
			t.Errorf("index byte %d corrupt: decode accepted", pos)
		}
	}
}

// TestV2ReservedFlagsRejected: the header flags byte is reserved (the
// writer leaves it 0). Any set bit — including bit 0, which once marked
// per-segment deflate — is an unknown flag and a typed header error.
func TestV2ReservedFlagsRejected(t *testing.T) {
	data := MarshalV2(richLog())
	if data[6] != 0 {
		t.Fatalf("writer set flags %#x, want 0", data[6])
	}
	for bit := 0; bit < 8; bit++ {
		bad := append([]byte(nil), data...)
		bad[6] = 1 << bit
		for _, quarantine := range []bool{false, true} {
			_, _, err := DecodeV2(bad, V2Options{QuarantineThreads: quarantine})
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("flags %#x quarantine=%v: err = %v, want *DecodeError", bad[6], quarantine, err)
			}
			if de.Offset != 6 || de.Section != "v2 header" || !strings.Contains(err.Error(), "unknown flags") {
				t.Errorf("flags %#x quarantine=%v: err = %v, want unknown flags at header offset 6",
					bad[6], quarantine, err)
			}
		}
	}
}

// encLenOverflowContainer crafts a container whose first thread entry
// carries an encoded (and raw) length of 2^64-off, so accumulating
// segment offsets wraps the running sum back to 0; the remaining entries
// are repacked so every pre-wrap-check invariant (packed offsets, raw ==
// encoded lengths, final sum landing on the container end) still holds.
// The index checksum is recomputed, so only the overflow guard can
// reject it with ErrTruncated.
func encLenOverflowContainer() []byte {
	data := MarshalV2(richLog())
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil {
		panic(err)
	}
	entry := func(i int) []byte {
		return data[v2HeaderLen+i*v2IndexEntryLen : v2HeaderLen+(i+1)*v2IndexEntryLen]
	}
	setLen := func(i int, n uint64) {
		binary.LittleEndian.PutUint64(entry(i)[16:24], n)
		binary.LittleEndian.PutUint64(entry(i)[24:32], n)
	}
	setLen(1, -idx.entries[1].off)
	for i := 2; i < len(idx.entries); i++ {
		binary.LittleEndian.PutUint64(entry(i)[8:16], 0)
		setLen(i, 0)
	}
	setLen(len(idx.entries)-1, uint64(len(data)-idx.areaStart))
	binary.LittleEndian.PutUint32(data[12:16],
		crc32.Checksum(data[v2HeaderLen:idx.areaStart], crcTable))
	return data
}

// TestV2IndexEncLenOverflow: an index entry whose encoded length wraps
// the running offset sum past 2^64 must fail with a typed error, never
// reach segmentPayload with a negative int length (regression: slice
// bounds panic on a crafted container).
func TestV2IndexEncLenOverflow(t *testing.T) {
	data := encLenOverflowContainer()
	for _, quarantine := range []bool{false, true} {
		_, _, err := DecodeV2(data, V2Options{QuarantineThreads: quarantine})
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("quarantine=%v: err = %v, want *DecodeError", quarantine, err)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("quarantine=%v: err = %v, want %v", quarantine, err, ErrTruncated)
		}
	}
}

// TestV2AllThreadsCorruptFailsLog: when no thread survives, quarantine
// mode condemns the log instead of returning an empty husk.
func TestV2AllThreadsCorruptFailsLog(t *testing.T) {
	data := MarshalV2(sampleLog()) // one thread
	idx, err := parseV2Index(data, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[idx.areaStart+int(idx.entries[1].off)] ^= 0x40
	if _, _, err := DecodeV2(bad, V2Options{QuarantineThreads: true}); err == nil {
		t.Fatal("decode accepted a log with zero surviving threads")
	}
}

func TestV2BoundedAllocation(t *testing.T) {
	data := MarshalV2(richLog())
	budget := uint64(64*len(data)) + 1<<20
	for _, pos := range []int{8, 40, 100, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		// Splice a maximal varint over one byte, then re-decode.
		huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
		bad = append(bad[:pos:pos], append(huge, bad[pos+1:]...)...)
		alloc := allocDelta(func() {
			DecodeV2(bad, V2Options{QuarantineThreads: true})
		})
		if alloc > budget {
			t.Errorf("splice at %d: allocated %d bytes for %d input (budget %d)",
				pos, alloc, len(bad), budget)
		}
	}
}

func TestDecodeFromFile(t *testing.T) {
	log := richLog()
	dir := t.TempDir()
	cases := map[string][]byte{
		"v1.rlog": Compress(Marshal(log)),
		"v2.rlog": MarshalV2(log),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := f.Stat()
		got, faults, err := DecodeFrom(f, st.Size(), V2Options{Jobs: 4})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(faults) != 0 {
			t.Fatalf("%s: faults %v", name, faults)
		}
		if !logsEqual(got, log) {
			t.Errorf("%s: DecodeFrom differs from in-memory decode", name)
		}
	}
	// Garbage file: typed rejection without reading the body.
	path := filepath.Join(dir, "junk.rlog")
	os.WriteFile(path, bytes.Repeat([]byte{0xab}, 4096), 0o644)
	f, _ := os.Open(path)
	defer f.Close()
	if _, _, err := DecodeFrom(f, 4096, V2Options{}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("junk: got %v, want ErrBadMagic", err)
	}
}

// TestV2RawSmallerOnLoadHeavyLogs pins the §5.1 win the format was
// designed for: on a load-heavy log with realistic (large, clustered)
// addresses, v2's signed address deltas and sparse registers beat v1's
// absolute addresses despite the 40-byte-per-segment index.
func TestV2RawSmallerOnLoadHeavyLogs(t *testing.T) {
	log := richLog()
	v1 := Stats(log)
	v2 := StatsV2(log)
	if v2.Instructions != v1.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", v2.Instructions, v1.Instructions)
	}
	if v2.RawBytes >= v1.RawBytes {
		t.Errorf("v2 raw %d >= v1 raw %d", v2.RawBytes, v1.RawBytes)
	}
	if v2.RawBitsPerInstr() > v1.RawBitsPerInstr() {
		t.Errorf("v2 raw bits/instr %.3f > v1 %.3f", v2.RawBitsPerInstr(), v1.RawBitsPerInstr())
	}
}
