// Package transport is the TCP link for internal/comm's rank Engine: each
// rank is a real process hosting one engine, and this package carries the
// engine's two frames between processes — point-to-point data and the
// Gatherv deposit each rank sends to rank 0 — as length-prefixed binary
// frames with CRC64 trailers (the internal/snapshot codec discipline).
// Each per-peer connection has an unbounded send queue drained by a
// writer goroutine, so a send never blocks and no send/receive ordering
// can deadlock a run.
//
// Everything rank-side — queues, the AnyRecv delivery rule, the gather,
// clocks, accounting — is the same comm.Engine the simulator runs, so a
// sampler run over TCP produces byte-identical edge sets, per-rank clocks
// and traffic counters to the simulated run on the same seed and
// partition. This package adds what only a network needs: framing, the
// hello and mesh formation, job setup and shards, per-source sequence
// checks, the end-of-run stats exchange, and teardown. Wall time
// influences nothing but the measured RunStats wall fields.
//
// Failure model: a dead peer surfaces as a connection error in that
// peer's reader; the first failure fails the local engine (waking every
// blocked primitive), best-effort fAbort frames fan the abort out to the
// rest of the mesh, and Comm.Run returns a structured error instead of
// wedging. The `transport.send` / `transport.send.rank<i>` failpoints
// inject exactly that failure for fault drills.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"parsample/internal/comm"
)

// protoVersion is negotiated in the hello exchange; a mismatch refuses the
// connection instead of corrupting a run.
const protoVersion = 2

// maxFrame bounds a single frame (1 GiB): large enough for any shard or
// gathered partial result the samplers produce, small enough to reject a
// corrupt length prefix before allocating.
const maxFrame = 1 << 30

// Frame types. Every frame is [u32 length][u8 type][body][u64 CRC64-ECMA
// over type+body]; the CRC is verified before the body is parsed, so a
// torn or corrupted stream surfaces as ErrCorrupt, never a panic.
const (
	fHello    byte = 1  // conn opener: proto version + kind + job + rank
	fHelloAck byte = 2  // acceptor's version echo
	fSetup    byte = 3  // control: job spec + shard (coordinator → worker)
	fSetupAck byte = 4  // worker registered the job's mesh intake
	fDone     byte = 5  // control: job finished on the worker (ok or error)
	fData     byte = 6  // point-to-point message
	fColl     byte = 7  // Gatherv deposit (rank → rank 0)
	fStats    byte = 8  // end-of-run rank accounting (rank → rank 0)
	fStatsAck byte = 9  // rank 0 collected all stats; teardown may begin
	fAbort    byte = 10 // best-effort abort fan-out with a reason
)

// Hello connection kinds.
const (
	helloControl byte = 0 // coordinator-to-worker job channel
	helloData    byte = 1 // rank-to-rank mesh channel for one job
)

// ErrCorrupt reports a frame that failed structural or checksum
// validation.
var ErrCorrupt = errors.New("transport: corrupt frame")

var crcTable = crc64.MakeTable(crc64.ECMA)

// writeFrame appends one framed message to w and flushes it.
func writeFrame(w *bufio.Writer, typ byte, body []byte) error {
	if len(body) > maxFrame-9 {
		return fmt.Errorf("transport: frame body %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(1+len(body)+8))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	crc := crc64.Update(crc64.Update(0, crcTable, []byte{typ}), crcTable, body)
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], crc)
	if _, err := w.Write(tr[:]); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one framed message, verifying the length bound and the
// CRC trailer before returning the body.
func readFrame(r *bufio.Reader) (typ byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	// The length prefix is untrusted: the buffer grows as bytes arrive
	// instead of being allocated up front, so a corrupt prefix costs no
	// more memory than the bytes the peer really sent.
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		return 0, nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	buf := b.Bytes()
	typ, body = buf[0], buf[1:n-8]
	want := binary.LittleEndian.Uint64(buf[n-8:])
	if got := crc64.Update(0, crcTable, buf[:n-8]); got != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch on frame type %d", ErrCorrupt, typ)
	}
	return typ, body, nil
}

// ----------------------------------------------------------------- hello

// hello is the body of the fHello frame that opens every connection: the
// connection kind and, for a data connection, the job and the dialing
// rank. The dialer's protocol version travels with it.
type hello struct {
	kind     byte
	jobID    uint64
	fromRank int
}

// encodeHello lays out h's body under this build's protocol version.
func encodeHello(h hello) []byte {
	var e wenc
	e.u16(protoVersion)
	e.u8(h.kind)
	e.u64(h.jobID)
	e.u32(uint32(h.fromRank))
	return e.buf
}

// decodeHello parses an fHello body. It is pure: a truncated body,
// trailing bytes or another protocol version is an error, never a panic.
func decodeHello(body []byte) (hello, error) {
	d := wdec{buf: body}
	ver := d.u16()
	h := hello{kind: d.u8(), jobID: d.u64(), fromRank: int(d.u32())}
	if err := d.finish(); err != nil {
		return hello{}, err
	}
	if err := checkVersion(ver); err != nil {
		return hello{}, err
	}
	return h, nil
}

// encodeHelloAck lays out the fHelloAck body: the acceptor's version echo.
func encodeHelloAck() []byte {
	var e wenc
	e.u16(protoVersion)
	return e.buf
}

// decodeHelloAck parses an fHelloAck body, refusing another protocol
// version.
func decodeHelloAck(body []byte) error {
	d := wdec{buf: body}
	ver := d.u16()
	if err := d.finish(); err != nil {
		return err
	}
	return checkVersion(ver)
}

func checkVersion(ver uint16) error {
	if ver != protoVersion {
		return fmt.Errorf("transport: peer speaks protocol %d, want %d", ver, protoVersion)
	}
	return nil
}

// ----------------------------------------------------------- rank frames

// rankFrame is the decoded body of one rank-to-rank frame: a point-to-point
// message (fData), a Gatherv deposit (fColl) or a rank's end-of-run
// accounting (fStats). from is the sender the body names; the reader
// checks it against the connection's peer.
type rankFrame struct {
	typ   byte
	from  int
	seq   int64       // fData: per-source sequence number
	frame comm.Frame  // fData, fColl: the engine frame
	stats remoteStats // fStats
}

// remoteStats is one remote rank's end-of-run accounting.
type remoteStats struct {
	ops                              int64
	clock, wall                      float64
	msgs, bytes, collMsgs, collBytes int64
}

// encode lays out rf's body. The only failure is a payload without a
// registered codec.
func (rf *rankFrame) encode() ([]byte, error) {
	var e wenc
	e.u32(uint32(rf.from))
	switch rf.typ {
	case fData:
		e.i64(rf.seq)
		e.f64(rf.frame.Arrive)
		e.u32(uint32(rf.frame.Bytes))
		e.payload(rf.frame.Payload)
	case fColl:
		e.f64(rf.frame.Clock)
		e.u32(uint32(rf.frame.Bytes))
		e.payload(rf.frame.Payload)
	case fStats:
		st := &rf.stats
		e.i64(st.ops)
		e.f64(st.clock)
		e.f64(st.wall)
		e.i64(st.msgs)
		e.i64(st.bytes)
		e.i64(st.collMsgs)
		e.i64(st.collBytes)
	}
	return e.buf, e.err
}

// decodeRankFrame parses the body of an fData, fColl or fStats frame of a
// p-rank job. It is pure: a body that is truncated, carries trailing
// bytes, holds an undecodable payload or names a sender outside [0, p) is
// an error, never a panic.
func decodeRankFrame(typ byte, body []byte, p int) (*rankFrame, error) {
	d := wdec{buf: body}
	rf := &rankFrame{typ: typ, from: int(d.u32())}
	switch typ {
	case fData:
		rf.frame.Kind = comm.FrameData
		rf.seq = d.i64()
		rf.frame.Arrive = d.f64()
		rf.frame.Bytes = int(d.u32())
		rf.frame.Payload = d.payload()
	case fColl:
		rf.frame.Kind = comm.FrameDeposit
		rf.frame.Clock = d.f64()
		rf.frame.Bytes = int(d.u32())
		rf.frame.Payload = d.payload()
	case fStats:
		rf.stats = remoteStats{ops: d.i64(), clock: d.f64(), wall: d.f64(),
			msgs: d.i64(), bytes: d.i64(), collMsgs: d.i64(), collBytes: d.i64()}
	default:
		return nil, fmt.Errorf("transport: frame type %d is not a rank frame", typ)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if rf.from < 0 || rf.from >= p {
		return nil, fmt.Errorf("%w: sender rank %d in a %d-rank job", ErrCorrupt, rf.from, p)
	}
	rf.frame.From = rf.from
	return rf, nil
}

// ---------------------------------------------------------- body builders

// wenc builds a frame body. err records the first payload that has no
// codec.
type wenc struct {
	buf []byte
	err error
}

func (e *wenc) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *wenc) u16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *wenc) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *wenc) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *wenc) i64(v int64)   { e.u64(uint64(v)) }
func (e *wenc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *wenc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *wenc) str(s string) { e.bytes([]byte(s)) }

// payload appends a kind-tagged comm payload.
func (e *wenc) payload(v any) {
	kind, data, err := comm.EncodePayload(v)
	if err != nil && e.err == nil {
		e.err = err
	}
	e.u16(kind)
	e.bytes(data)
}

func (e *wenc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *wenc) strs(v []string) {
	e.u32(uint32(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

// wdec parses a frame body with a sticky error; finish() reports any
// decode failure or trailing garbage as ErrCorrupt.
type wdec struct {
	buf []byte
	off int
	err error
}

func (d *wdec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *wdec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) || n < 0 {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *wdec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *wdec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *wdec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *wdec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *wdec) i64() int64   { return int64(d.u64()) }
func (d *wdec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 length prefix bounded by the remaining body, so a
// corrupt count cannot drive an over-allocation.
func (d *wdec) count(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && (n < 0 || n*elemSize > len(d.buf)-d.off) {
		d.fail()
		return 0
	}
	return n
}

func (d *wdec) bytes() []byte { return d.take(d.count(1)) }
func (d *wdec) str() string   { return string(d.bytes()) }

// payload reads a kind-tagged comm payload; a decode failure is sticky
// like any other.
func (d *wdec) payload() any {
	kind := d.u16()
	data := d.bytes()
	if d.err != nil {
		return nil
	}
	v, err := comm.DecodePayload(kind, data)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *wdec) i32s() []int32 {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

func (d *wdec) strs() []string {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *wdec) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return d.err
}
