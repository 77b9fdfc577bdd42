package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parsample/internal/comm"
	"parsample/internal/graph"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bodies := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, body := range bodies {
		if err := writeFrame(bw, byte(i+1), body); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, body := range bodies {
		typ, got, err := readFrame(br)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, body) {
			t.Fatalf("frame %d: type %d, %d bytes", i, typ, len(got))
		}
	}
	if _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, fData, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte: the CRC trailer must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[7] ^= 0x40
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(flipped))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: want ErrCorrupt, got %v", err)
	}

	// Oversized length prefix: rejected before allocation.
	big := append([]byte(nil), raw...)
	big[0], big[1], big[2], big[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(big))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: want ErrCorrupt, got %v", err)
	}

	// Truncated stream: a clean error, not a hang or panic.
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw[:len(raw)-3]))); err == nil {
		t.Fatal("truncated frame: want error")
	}
}

func TestBodyCodecRoundtrip(t *testing.T) {
	var e wenc
	e.u8(7)
	e.u16(1000)
	e.u32(1 << 20)
	e.u64(1 << 40)
	e.i64(-12345)
	e.f64(3.25)
	e.bytes([]byte("abc"))
	e.str("hello")
	e.i32s([]int32{5, -6})
	e.strs([]string{"x", "yz"})

	d := wdec{buf: e.buf}
	if d.u8() != 7 || d.u16() != 1000 || d.u32() != 1<<20 || d.u64() != 1<<40 ||
		d.i64() != -12345 || d.f64() != 3.25 ||
		string(d.bytes()) != "abc" || d.str() != "hello" {
		t.Fatal("scalar roundtrip mismatch")
	}
	if v := d.i32s(); len(v) != 2 || v[0] != 5 || v[1] != -6 {
		t.Fatalf("i32s: %v", v)
	}
	if v := d.strs(); len(v) != 2 || v[0] != "x" || v[1] != "yz" {
		t.Fatalf("strs: %v", v)
	}
	if err := d.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	// Trailing garbage is corruption, not silence.
	d2 := wdec{buf: append(append([]byte(nil), e.buf...), 0xFF)}
	d2.off = len(e.buf)
	if err := d2.finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: want ErrCorrupt, got %v", err)
	}

	// A truncated body turns every subsequent read into the sticky error.
	d3 := wdec{buf: []byte{1, 2}}
	d3.u32()
	if err := d3.finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short body: want ErrCorrupt, got %v", err)
	}
}

// A peer still speaking protocol 1 is refused at the hello.
func TestHelloRefusesV1Peer(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		var e wenc
		e.u16(1)
		e.u8(helloData)
		e.u64(1)
		e.u32(1)
		writeFrame(bufio.NewWriter(a), fHello, e.buf)
	}()
	if _, _, _, _, err := acceptHello(b); err == nil || !strings.Contains(err.Error(), "protocol 1, want 2") {
		t.Fatalf("v1 hello: got %v, want a protocol refusal", err)
	}
}

func TestJobSpecRoundtrip(t *testing.T) {
	g := graph.RMAT(6, 4, 0, 0, 0, 7)
	order := graph.NaturalOrder(g.N())
	pt := graph.BlockPartition(order, 3)
	js := &jobSpec{
		jobID: 42,
		rank:  2,
		p:     3,
		model: comm.DefaultCostModel(),
		alg:   3,
		seed:  -99,
		order: order,
		addrs: []string{"a:1", "b:2", "c:3"},
		shard: encodeShard(g, pt, 2),
	}
	got, err := decodeJobSpec(encodeJobSpec(js))
	if err != nil {
		t.Fatal(err)
	}
	if got.jobID != js.jobID || got.rank != js.rank || got.p != js.p ||
		got.model != js.model || got.alg != js.alg || got.seed != js.seed ||
		len(got.order) != len(js.order) || len(got.addrs) != 3 {
		t.Fatalf("spec mismatch: %+v", got)
	}
	shard, err := got.decodeShard()
	if err != nil {
		t.Fatal(err)
	}
	if shard.N() != g.N() {
		t.Fatalf("shard universe %d, want %d", shard.N(), g.N())
	}

	// Invalid seats are rejected at decode time.
	js.rank = 0
	if _, err := decodeJobSpec(encodeJobSpec(js)); err == nil {
		t.Fatal("rank 0 job spec should be rejected")
	}
}

func TestShardGraph(t *testing.T) {
	g := graph.RMAT(8, 8, 0, 0, 0, 11)
	order := graph.NaturalOrder(g.N())
	pt := graph.BlockPartition(order, 4)
	for rank := 0; rank < pt.P(); rank++ {
		shard := shardGraph(g, pt, rank)
		if shard.N() != g.N() {
			t.Fatalf("rank %d: shard universe %d, want %d", rank, shard.N(), g.N())
		}
		want := 0
		g.ForEachEdge(func(u, v int32) {
			if pt.Part[u] == int32(rank) || pt.Part[v] == int32(rank) {
				want++
				if !shard.HasEdge(u, v) {
					t.Fatalf("rank %d: shard missing block-incident edge (%d,%d)", rank, u, v)
				}
			}
		})
		if shard.M() != want {
			t.Fatalf("rank %d: shard has %d edges, want %d", rank, shard.M(), want)
		}
		// Block vertices see their full adjacency on the shard.
		for _, v := range pt.Parts[rank] {
			if shard.Degree(v) != g.Degree(v) {
				t.Fatalf("rank %d: vertex %d degree %d on shard, %d on full graph",
					rank, v, shard.Degree(v), g.Degree(v))
			}
		}
	}
}

// fuzzP is the job size FuzzFrameDecode decodes rank frames for.
const fuzzP = 4

// roundTripFrame checks the receive side of the wire on one frame type and
// body. The framing round-trips: writeFrame then readFrame gives back typ
// and body. readFrame never panics on the raw body bytes, and when it
// accepts them they re-frame to the bytes it consumed. The body decodes
// as the receive path decodes it — decodeRankFrame for data, deposit and
// stats frames, decodeJobSpec for a setup frame, decodeHello and
// decodeHelloAck for the handshake — and an accepted body
// re-encodes to exactly its bytes. It returns the decode error, if any.
func roundTripFrame(t *testing.T, typ byte, body []byte) error {
	var framed bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&framed), typ, body); err != nil {
		return err
	}
	gotTyp, gotBody, err := readFrame(bufio.NewReader(&framed))
	if err != nil || gotTyp != typ || !bytes.Equal(gotBody, body) {
		t.Fatalf("frame type %d with a %d-byte body read back as type %d, %d bytes, err %v", typ, len(body), gotTyp, len(gotBody), err)
	}
	if rawTyp, rawBody, err := readFrame(bufio.NewReader(bytes.NewReader(body))); err == nil {
		framed.Reset()
		writeFrame(bufio.NewWriter(&framed), rawTyp, rawBody)
		if !bytes.Equal(framed.Bytes(), body[:framed.Len()]) {
			t.Fatalf("accepted raw frame re-frames to different bytes:\n got %x\nwant %x", framed.Bytes(), body[:framed.Len()])
		}
	}

	var enc []byte
	switch typ {
	case fData, fColl, fStats:
		rf, err := decodeRankFrame(typ, body, fuzzP)
		if err != nil {
			return err
		}
		if rf.from < 0 || rf.from >= fuzzP || rf.frame.From != rf.from {
			t.Fatalf("accepted sender %d (frame says %d) in a %d-rank job", rf.from, rf.frame.From, fuzzP)
		}
		if enc, err = rf.encode(); err != nil {
			t.Fatalf("re-encode of an accepted frame: %v", err)
		}
	case fSetup:
		js, err := decodeJobSpec(body)
		if err != nil {
			return err
		}
		enc = encodeJobSpec(js)
	case fHello:
		h, err := decodeHello(body)
		if err != nil {
			return err
		}
		enc = encodeHello(h)
	case fHelloAck:
		if err := decodeHelloAck(body); err != nil {
			return err
		}
		enc = encodeHelloAck()
	default:
		return nil
	}
	if !bytes.Equal(enc, body) {
		t.Fatalf("accepted frame type %d re-encodes to different bytes:\n got %x\nwant %x", typ, enc, body)
	}
	return nil
}

// FuzzFrameDecode feeds arbitrary frame types and bodies through
// roundTripFrame: nothing may panic, and whatever is accepted re-encodes
// to its own bytes. The seed corpus in testdata/fuzz/FuzzFrameDecode holds
// one frame of each kind written by the encoders plus rejected inputs (a
// v1 deposit layout, trailing body bytes, a sender rank out of range, a
// wrong-version hello, a truncated hello ack).
func FuzzFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, body []byte) { roundTripFrame(t, typ, body) })
}

// TestFrameDecodeCorpus pins the seed corpus's intent: the entries named
// *-rejected fail to decode and every other entry decodes.
func TestFrameDecodeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A two-value corpus entry: a version line, byte('…'), []byte("…").
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[1], "byte(") || !strings.HasPrefix(lines[2], "[]byte(") {
			t.Fatalf("%s: not a (byte, []byte) corpus entry", ent.Name())
		}
		typ, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
		body, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err := errors.Join(err1, err2); err != nil || len(typ) != 1 {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		err = roundTripFrame(t, typ[0], []byte(body))
		if rejected := strings.HasSuffix(ent.Name(), "-rejected"); rejected != (err != nil) {
			t.Errorf("%s: decode error %v", ent.Name(), err)
		}
	}
}
