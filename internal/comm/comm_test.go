package comm

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

type testPayload struct{ A, B int32 }

// The codec registry is process-global, so tests that register must stay
// correct under -count=N: the round-trip codec registers once, and
// TestRegisterCodecPanics takes a fresh kind on every run. Test kinds
// start at testKindBase, clear of the kinds production packages register.
const testKindBase = 1000

var (
	registerTestPayload sync.Once
	nextTestKind        atomic.Uint32
)

func TestRegisteredCodecRoundTrip(t *testing.T) {
	registerTestPayload.Do(func() {
		RegisterCodec(Codec{
			Kind:  testKindBase,
			Match: func(v any) bool { _, ok := v.(testPayload); return ok },
			Encode: func(v any) []byte {
				p := v.(testPayload)
				return []byte{byte(p.A), byte(p.B)}
			},
			Decode: func(data []byte) (any, error) {
				return testPayload{A: int32(data[0]), B: int32(data[1])}, nil
			},
		})
	})
	kind, data, err := EncodePayload(testPayload{A: 5, B: 9})
	if err != nil {
		t.Fatal(err)
	}
	if kind != testKindBase {
		t.Fatalf("kind %d", kind)
	}
	got, err := DecodePayload(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.(testPayload) != (testPayload{A: 5, B: 9}) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestEncodePayloadUnknownType(t *testing.T) {
	if _, _, err := EncodePayload(struct{ X chan int }{}); err == nil {
		t.Fatal("want error for unregistered payload type")
	}
	if _, err := DecodePayload(60_000, nil); err == nil {
		t.Fatal("want error for unknown payload kind")
	}
}

func TestRegisterCodecPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	ok := Codec{
		Kind:   testKindBase + uint16(nextTestKind.Add(1)),
		Match:  func(any) bool { return false },
		Encode: func(any) []byte { return nil },
		Decode: func([]byte) (any, error) { return nil, nil },
	}
	mustPanic("nil hooks", func() {
		c := ok
		c.Match = nil
		RegisterCodec(c)
	})
	RegisterCodec(ok)
	mustPanic("duplicate kind", func() { RegisterCodec(ok) })
}

func TestHops(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want float64
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}} {
		if got := Hops(tc.p); got != tc.want {
			t.Fatalf("Hops(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSendRecvAdvance(t *testing.T) {
	m := DefaultCostModel()
	clock, arrive := m.SendAdvance(1.0, 1000)
	if want := 1.0 + m.OverheadSeconds; clock != want {
		t.Fatalf("send clock %v, want %v", clock, want)
	}
	if want := clock + m.LatencySeconds + 1000*m.SecondsPerByte; arrive != want {
		t.Fatalf("arrive %v, want %v", arrive, want)
	}
	// A receiver behind the arrival jumps to it; one already past it only
	// pays the overhead.
	if got := m.RecvAdvance(0, arrive); got != arrive+m.OverheadSeconds {
		t.Fatalf("behind recv %v", got)
	}
	if got := m.RecvAdvance(arrive+1, arrive); got != arrive+1+m.OverheadSeconds {
		t.Fatalf("ahead recv %v", got)
	}
}

func TestGathervAdvance(t *testing.T) {
	m := DefaultCostModel()
	clocks := []float64{5, 1, 2, 3}
	sizes := []int{0, 100, 200, 300}

	got, msgs, bytes := m.GathervAdvance(4, 1, clocks[1], nil, nil)
	if want := clocks[1] + m.OverheadSeconds; got != want || msgs != 0 || bytes != 0 {
		t.Fatalf("contributor: %v %d %d", got, msgs, bytes)
	}

	got, msgs, bytes = m.GathervAdvance(4, 0, clocks[0], clocks, sizes)
	latest := 5.0 // rank 0's own clock dominates the contributors here
	want := latest + Hops(4)*m.LatencySeconds + 2*m.OverheadSeconds + 600*m.SecondsPerByte
	if math.Abs(got-want) > 1e-15 || msgs != 3 || bytes != 600 {
		t.Fatalf("rank 0: %v (want %v) %d %d", got, want, msgs, bytes)
	}

	if got, msgs, _ := m.GathervAdvance(1, 0, 7, clocks[:1], sizes[:1]); got != 7 || msgs != 0 {
		t.Fatalf("p=1: %v %d", got, msgs)
	}
}

func TestRunStatsWallFields(t *testing.T) {
	s := RunStats{
		RankSeconds:     []float64{1, 3, 2},
		RankWallSeconds: []float64{0.5, 0.25, 0.75},
		SerialOps:       100,
	}
	if got := s.CriticalPath(); got != 3 {
		t.Fatalf("critical path %v", got)
	}
	if got := MaxClock(s.RankWallSeconds); got != 0.75 {
		t.Fatalf("max rank wall %v", got)
	}
	m := DefaultCostModel()
	if got, want := m.Time(&s), 3+100*m.SerialSecPerOp; got != want {
		t.Fatalf("time %v want %v", got, want)
	}
}
