// Command gen regenerates the checked-in corruption corpora from the
// exec01 recording, deterministically:
//
//   - testdata/corrupt/<kind>.rlog — one known-bad v1 container per
//     corruption kind, consumed by the trace decode tests and the CLI
//     quarantine test;
//   - testdata/corrupt/v2-<kind>.rlog — the same over the segmented v2
//     container (kinds whose damage always salvages may be absent);
//   - internal/trace/testdata/fuzz/FuzzUnmarshal/chaos-<kind> — the
//     same corruptions as raw (uncompressed) payloads, seeding the
//     decoder fuzzer;
//   - internal/trace/testdata/fuzz/FuzzDecodeV2/chaos-* — corrupted and
//     intact v2 containers seeding the segmented-decoder fuzzer;
//   - internal/isa/testdata/fuzz/FuzzDecode/chaos-flip-<i> — bit-flipped
//     instruction encodings seeding the instruction fuzzer.
//
// Run from the repo root: go run ./internal/chaos/gen
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	root := flag.String("root", ".", "repository root to write corpora under")
	seed := flag.Int64("seed", 1, "corruption seed")
	flag.Parse()

	s, err := workloads.FindScenario("exec01")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := s.Program()
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, _, err := record.Run(prog, s.Config(), record.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, rlog); err != nil {
		log.Fatal(err)
	}

	bad := chaos.KnownBad(buf.Bytes(), *seed)
	corruptDir := filepath.Join(*root, "testdata", "corrupt")
	fuzzDir := filepath.Join(*root, "internal", "trace", "testdata", "fuzz", "FuzzUnmarshal")
	for _, dir := range []string{corruptDir, fuzzDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for kind, data := range bad {
		path := filepath.Join(corruptDir, kind.String()+".rlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		// Seed the decoder fuzzer with the corruption's raw payload; a
		// container-level corruption (bad magic, flipped compressed
		// bytes) rarely decompresses, so fall back to the bytes as-is.
		raw, err := trace.Decompress(data)
		if err != nil {
			raw = data
		}
		if err := writeSeed(filepath.Join(fuzzDir, "chaos-"+kind.String()), raw); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}

	// The same sweep over the segmented v2 container. Corruptions that
	// confine their damage to one thread segment salvage instead of
	// failing, so KnownBad may skip a kind here; consumers glob.
	v2 := trace.MarshalV2(rlog)
	v2Dir := filepath.Join(*root, "internal", "trace", "testdata", "fuzz", "FuzzDecodeV2")
	if err := os.MkdirAll(v2Dir, 0o755); err != nil {
		log.Fatal(err)
	}
	badV2 := chaos.KnownBad(v2, *seed)
	for kind, data := range badV2 {
		path := filepath.Join(corruptDir, "v2-"+kind.String()+".rlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		if err := writeSeed(filepath.Join(v2Dir, "chaos-"+kind.String()), data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
	if err := writeSeed(filepath.Join(v2Dir, "chaos-intact"), v2); err != nil {
		log.Fatal(err)
	}

	// Instruction fuzzer seeds: encoded instructions with one bit flipped.
	isaDir := filepath.Join(*root, "internal", "isa", "testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(isaDir, 0o755); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < 8 && i < len(prog.Code); i++ {
		enc := isa.Encode(nil, prog.Code[i*len(prog.Code)/8])
		enc[rng.Intn(len(enc))] ^= 1 << rng.Intn(8)
		if err := writeSeed(filepath.Join(isaDir, fmt.Sprintf("chaos-flip-%d", i)), enc); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote fuzz seeds under %s and %s\n", fuzzDir, isaDir)
}

// writeSeed writes one corpus entry in the `go test fuzz v1` format.
func writeSeed(path string, data []byte) error {
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	return os.WriteFile(path, []byte(body), 0o644)
}
