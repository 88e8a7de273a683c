package classify

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vproc"
)

// fakeBacking is an in-memory Backing that records its traffic.
type fakeBacking struct {
	m    map[vproc.Fingerprint]vproc.Result
	gets int
	puts int
}

func newFakeBacking() *fakeBacking {
	return &fakeBacking{m: map[vproc.Fingerprint]vproc.Result{}}
}

func (b *fakeBacking) Get(fp vproc.Fingerprint) (vproc.Result, bool) {
	b.gets++
	res, ok := b.m[fp]
	return res, ok
}

func (b *fakeBacking) Put(fp vproc.Fingerprint, res vproc.Result) {
	b.puts++
	b.m[fp] = res
}

// lookup is Do with a compute that yields the zero Result: a miss
// caches it, and ok reports a hit.
func lookup(m *Memo, fp vproc.Fingerprint) (vproc.Result, bool) {
	return m.Do(fp, func() vproc.Result { return vproc.Result{} })
}

func fpByte(n byte) vproc.Fingerprint {
	var fp vproc.Fingerprint
	fp[0] = n
	return fp
}

func TestMemoBackedWriteThrough(t *testing.T) {
	back := newFakeBacking()
	m := NewMemoBacked(back)
	res := vproc.Result{Outcome: vproc.NoStateChange}
	m.Store(fpByte(1), res)
	if back.puts != 1 {
		t.Fatalf("backing puts = %d, want 1 (write-through)", back.puts)
	}
	// A duplicate store is dropped at both levels.
	m.Store(fpByte(1), res)
	if back.puts != 1 {
		t.Fatalf("backing puts = %d after duplicate store, want 1", back.puts)
	}
	// In-memory hit does not consult the backing.
	if _, ok := lookup(m, fpByte(1)); !ok {
		t.Fatal("expected in-memory hit")
	}
	if back.gets != 0 {
		t.Fatalf("backing gets = %d on in-memory hit, want 0", back.gets)
	}
}

func TestMemoBackedFallthroughAndPromotion(t *testing.T) {
	back := newFakeBacking()
	want := vproc.Result{Outcome: vproc.ReplayFailure, FailReason: "original order: x", OrigFail: "x"}
	back.m[fpByte(2)] = want
	m := NewMemoBacked(back)
	got, ok := lookup(m, fpByte(2))
	if !ok || got.Outcome != want.Outcome || got.FailReason != want.FailReason || got.OrigFail != want.OrigFail {
		t.Fatalf("lookup = %+v, %v; want backing entry", got, ok)
	}
	if m.Hits() != 1 || m.Misses() != 0 {
		t.Fatalf("hits=%d misses=%d; a backing hit must count as a memo hit", m.Hits(), m.Misses())
	}
	// Promotion: the second lookup is served from memory.
	lookup(m, fpByte(2))
	if back.gets != 1 {
		t.Fatalf("backing gets = %d, want 1 (promoted after first hit)", back.gets)
	}
	// Promotion must not write back.
	if back.puts != 0 {
		t.Fatalf("backing puts = %d, want 0 (promotion is read-only)", back.puts)
	}
	// A true miss at both levels is a memo miss.
	if _, ok := lookup(m, fpByte(3)); ok {
		t.Fatal("unexpected hit")
	}
	if m.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", m.Misses())
	}
}

func TestMemoNilBackingIsPlainMemo(t *testing.T) {
	m := NewMemoBacked(nil)
	if _, ok := lookup(m, fpByte(4)); ok {
		t.Fatal("unexpected hit")
	}
	if _, ok := lookup(m, fpByte(4)); !ok {
		t.Fatal("expected hit")
	}
}

func TestMemoDoComputesOncePerFingerprint(t *testing.T) {
	m := NewMemo()
	const callers = 16
	var computed atomic.Int32
	var started, wg sync.WaitGroup
	started.Add(callers)
	misses := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			res, hit := m.Do(fpByte(7), func() vproc.Result {
				computed.Add(1)
				started.Wait() // hold the flight open until every caller runs
				return vproc.Result{Outcome: vproc.StateChange}
			})
			if res.Outcome != vproc.StateChange {
				t.Errorf("caller %d got %v", i, res.Outcome)
			}
			misses[i] = !hit
		}(i)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if m.Misses() != 1 || m.Hits() != callers-1 {
		t.Fatalf("misses=%d hits=%d, want 1 and %d", m.Misses(), m.Hits(), callers-1)
	}
	leaders := 0
	for _, miss := range misses {
		if miss {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers reported a miss, want 1", leaders)
	}
}

func TestMemoDoRetriesAfterPanic(t *testing.T) {
	m := NewMemo()
	func() {
		defer func() { _ = recover() }()
		m.Do(fpByte(8), func() vproc.Result { panic("replay invariant") })
	}()
	res, hit := m.Do(fpByte(8), func() vproc.Result { return vproc.Result{Outcome: vproc.NoStateChange} })
	if hit || res.Outcome != vproc.NoStateChange {
		t.Fatalf("after a panicked flight: res=%v hit=%v, want a fresh computation", res.Outcome, hit)
	}
	if _, hit := m.Do(fpByte(8), nil); !hit {
		t.Fatal("the recomputed result was not cached")
	}
}
