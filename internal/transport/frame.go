// The envelope wire codec. Every message is one frame: a uint32 big-endian
// body length, then the body. The body is
//
//	type                          uvarint
//	version                       byte, on handshake frames only (hasVersion)
//	Iter WorkerID Epoch RootGen
//	Chunk Chunks Part QuantLen    zig-zag varints
//	Trace                         uvarint
//	Codec                         byte
//	flags                         byte: Assign, Telemetry, Adopt present
//	Batch Blob Codecs Quant       uvarint(len+1), then the bytes
//	Spans                         uvarint(n+1), then n × (uvarint name length, name, float64)
//	Vector                        uvarint(n+1), then n × float64
//	Assign (flagged)              WorkerID K S, Partitions as zig-zag varints, RowCoeffs as float64s
//	Telemetry (flagged)           ComputeSeconds UploadSeconds as float64s, Partitions
//	Adopt (flagged)               Group Epoch, Members as zig-zag varints
//
// float64s are little-endian IEEE-754 (AppendFloat64s), so parameters and
// gradients cross the wire bit-exactly. A length or count of 0 encodes a nil
// slice and n+1 a slice of n elements, so nil and empty stay distinct. A
// MsgBatch payload is a concatenation of frames in this same layout.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// ProtocolVersion is the wire protocol this binary speaks. It rides every
// handshake frame (MsgHello, MsgAdopt, MsgPartitionReq), so a peer on
// another version is refused with ErrProtocolVersion when the connection
// opens. Version 1 was the gob-encoded envelope stream; version 2 is the
// binary frame above.
const ProtocolVersion = 2

// gobProtocolVersion is the version reported for a peer that opens with a
// gob stream.
const gobProtocolVersion = 1

// ErrProtocolVersion is returned by Recv for a handshake from a peer on
// another protocol version; the error text names both versions. It wraps
// ErrMalformed: a frame this binary cannot parse never reaches the runtime.
var ErrProtocolVersion = fmt.Errorf("%w: protocol version mismatch", ErrMalformed)

// maxFrameLen caps a frame body: the largest legal payload (a MaxVectorLen
// float64 vector or a MaxBlobLen blob piece) plus headroom for the header
// fields and small payloads riding with it. Recv checks a length prefix
// against it before reading anything else. It stays below 1<<31, so the
// first byte of a legal frame is never a gob long-count marker.
const maxFrameLen = max(8*MaxVectorLen, MaxBlobLen) + 1<<20

// gobCountMarker is the smallest first byte of a gob stream's opening
// message: a type definition longer than 127 bytes, whose byte count gob
// writes as a negated length-of-count byte (0xF8..0xFF).
const gobCountMarker = 0xF8

// minReadStep is the first step Recv reads a body in. Later steps double
// with the bytes already received, so a length prefix claiming a huge body
// allocates at most about twice what the peer actually sent.
const minReadStep = 64 << 10

// readBufSize sizes the buffered reader in front of each connection.
const readBufSize = 32 << 10

// Presence flags for the optional sub-structs.
const (
	flagAssign    = 1 << 0
	flagTelemetry = 1 << 1
	flagAdopt     = 1 << 2
	flagsKnown    = flagAssign | flagTelemetry | flagAdopt
)

// hasVersion reports whether frames of type t carry the version byte.
func hasVersion(t MsgType) bool {
	return t == MsgHello || t == MsgAdopt || t == MsgPartitionReq
}

// AppendFrame appends e's frame — length prefix and body — to dst and
// returns the extended slice. It does not validate e (receivers do); it
// fails only when the body would exceed the frame cap. Encoding a gradient
// records its payload in the per-codec counters (WireCodec), so a frame is
// counted once however many connections it is written to (SendFrame).
func AppendFrame(dst []byte, e *Envelope) ([]byte, error) {
	at := len(dst)
	dst = appendBody(append(dst, 0, 0, 0, 0), e)
	n := len(dst) - at - 4
	if n > maxFrameLen {
		return dst[:at], fmt.Errorf("transport: %v frame body of %d B exceeds cap %d", e.Type, n, maxFrameLen)
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(n))
	if e.Type == MsgGradient {
		countCodecOut(e)
	}
	return dst, nil
}

func appendBody(b []byte, e *Envelope) []byte {
	b = binary.AppendUvarint(b, uint64(e.Type))
	if hasVersion(e.Type) {
		b = append(b, ProtocolVersion)
	}
	for _, v := range [...]int{e.Iter, e.WorkerID, e.Epoch, e.RootGen, e.Chunk, e.Chunks, e.Part, e.QuantLen} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendUvarint(b, e.Trace)
	var flags byte
	if e.Assign != nil {
		flags |= flagAssign
	}
	if e.Telemetry != nil {
		flags |= flagTelemetry
	}
	if e.Adopt != nil {
		flags |= flagAdopt
	}
	b = append(b, e.Codec, flags)
	for _, p := range [...][]byte{e.Batch, e.Blob, e.Codecs, e.Quant} {
		b = appendCount(b, p == nil, len(p))
		b = append(b, p...)
	}
	b = appendCount(b, e.Spans == nil, len(e.Spans))
	for _, sp := range e.Spans {
		b = binary.AppendUvarint(b, uint64(len(sp.Phase)))
		b = append(b, sp.Phase...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sp.Seconds))
	}
	b = appendCount(b, e.Vector == nil, len(e.Vector))
	b = AppendFloat64s(b, e.Vector)
	if a := e.Assign; a != nil {
		b = binary.AppendVarint(b, int64(a.WorkerID))
		b = binary.AppendVarint(b, int64(a.K))
		b = binary.AppendVarint(b, int64(a.S))
		b = appendInts(b, a.Partitions)
		b = appendCount(b, a.RowCoeffs == nil, len(a.RowCoeffs))
		b = AppendFloat64s(b, a.RowCoeffs)
	}
	if t := e.Telemetry; t != nil {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.ComputeSeconds))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.UploadSeconds))
		b = binary.AppendVarint(b, int64(t.Partitions))
	}
	if a := e.Adopt; a != nil {
		b = binary.AppendVarint(b, int64(a.Group))
		b = binary.AppendVarint(b, int64(a.Epoch))
		b = appendInts(b, a.Members)
	}
	return b
}

// appendCount writes a slice's length marker: 0 for nil, n+1 otherwise.
func appendCount(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendInts(b []byte, v []int) []byte {
	b = appendCount(b, v == nil, len(v))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// bodyReader decodes a frame body. The first failure sticks: later reads
// return zero values and decodeBody reports that failure.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
	r.b = nil
}

func (r *bodyReader) byte(what string) byte {
	if len(r.b) == 0 {
		r.fail("frame truncated at %s", what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *bodyReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint at %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) int(what string) int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail("bad varint at %s", what)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *bodyReader) float64(what string) float64 {
	if len(r.b) < 8 {
		r.fail("frame truncated at %s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a slice length marker. It returns -1 for nil, and fails when
// the rest of the body cannot hold that many elements of at least minSize
// bytes each — so no count can make the decoder allocate past the frame.
func (r *bodyReader) count(what string, minSize int) int {
	u := r.uvarint(what)
	if u == 0 {
		return -1
	}
	if u-1 > uint64(len(r.b)/minSize) {
		r.fail("%s count %d exceeds the %d bytes left", what, u-1, len(r.b))
		return -1
	}
	return int(u - 1)
}

// bytes reads a length-prefixed byte string. With copied false the result
// aliases the body; the caller must consume it before the body is reused.
func (r *bodyReader) bytes(what string, copied bool) []byte {
	n := r.count(what, 1)
	if n < 0 {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	if copied {
		v = append(make([]byte, 0, n), v...)
	}
	return v
}

// string reads a uvarint-length-prefixed string.
func (r *bodyReader) string(what string) string {
	n := r.uvarint(what)
	if n > uint64(len(r.b)) {
		r.fail("%s length %d exceeds the %d bytes left", what, n, len(r.b))
		return ""
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) floats(what string) []float64 {
	n := r.count(what, 8)
	if n < 0 {
		return nil
	}
	if n == 0 {
		return []float64{}
	}
	v, rest, err := ReadFloat64s(r.b, n)
	if err != nil {
		r.fail("%s: %v", what, err)
		return nil
	}
	r.b = rest
	return v
}

func (r *bodyReader) ints(what string) []int {
	n := r.count(what, 1)
	if n < 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.int(what)
	}
	return v
}

// decodeBody parses one frame body into a fresh envelope. Every slice it
// returns is a copy, except Batch and Quant, which alias body: Recv unpacks
// a batch and dequantizes a gradient before returning, so neither escapes.
// Structural errors — truncation, a bad varint, unknown flag bits, trailing
// bytes — wrap ErrMalformed; a handshake frame on another protocol version
// wraps ErrProtocolVersion. decodeBody checks no protocol invariant:
// validate does.
func decodeBody(body []byte) (*Envelope, error) {
	r := &bodyReader{b: body}
	e := &Envelope{Type: MsgType(r.uvarint("type"))}
	if hasVersion(e.Type) && r.err == nil {
		if v := r.byte("version"); r.err == nil && v != ProtocolVersion {
			return nil, fmt.Errorf("%w: %v from a peer speaking v%d, this binary speaks v%d", ErrProtocolVersion, e.Type, v, ProtocolVersion)
		}
	}
	for _, p := range [...]*int{&e.Iter, &e.WorkerID, &e.Epoch, &e.RootGen, &e.Chunk, &e.Chunks, &e.Part, &e.QuantLen} {
		*p = r.int("header")
	}
	e.Trace = r.uvarint("trace")
	e.Codec = r.byte("codec")
	flags := r.byte("flags")
	if flags&^flagsKnown != 0 {
		r.fail("unknown flag bits %#x", flags)
	}
	e.Batch = r.bytes("batch", false)
	e.Blob = r.bytes("blob", true)
	e.Codecs = r.bytes("codecs", true)
	e.Quant = r.bytes("quant", false)
	if n := r.count("spans", 9); n >= 0 {
		e.Spans = make([]PhaseSpan, n)
		for i := range e.Spans {
			e.Spans[i] = PhaseSpan{Phase: r.string("span name"), Seconds: r.float64("span seconds")}
		}
	}
	e.Vector = r.floats("vector")
	if flags&flagAssign != 0 {
		e.Assign = &Assignment{WorkerID: r.int("assign"), K: r.int("assign"), S: r.int("assign")}
		e.Assign.Partitions = r.ints("partitions")
		e.Assign.RowCoeffs = r.floats("row coefficients")
	}
	if flags&flagTelemetry != 0 {
		e.Telemetry = &Telemetry{ComputeSeconds: r.float64("telemetry"), UploadSeconds: r.float64("telemetry")}
		e.Telemetry.Partitions = r.int("telemetry")
	}
	if flags&flagAdopt != 0 {
		e.Adopt = &Adoption{Group: r.int("adopt"), Epoch: r.int("adopt")}
		e.Adopt.Members = r.ints("members")
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes after %v body", len(r.b), e.Type)
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}

// frameReader reads frames off one connection into a reused body buffer.
type frameReader struct {
	r       *bufio.Reader
	body    []byte
	started bool
}

// next returns the next frame body. It aliases the reader's buffer until
// the following call. A length prefix over the cap fails before anything
// is allocated, and a body is read in bounded steps, so a peer that claims
// a huge frame and hangs up costs only what it actually sent. A stream
// that opens with a gob message fails with ErrProtocolVersion.
func (f *frameReader) next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		return nil, err
	}
	first := !f.started
	f.started = true
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameLen {
		if first && hdr[0] >= gobCountMarker {
			return nil, fmt.Errorf("%w: peer speaks v%d (gob), this binary speaks v%d", ErrProtocolVersion, gobProtocolVersion, ProtocolVersion)
		}
		return nil, fmt.Errorf("frame length %d exceeds cap %d", size, maxFrameLen)
	}
	n := int(size)
	body := f.body[:0]
	for len(body) < n {
		step := min(n-len(body), max(len(body), minReadStep))
		body = slices.Grow(body, step)
		got, err := io.ReadFull(f.r, body[len(body):len(body)+step])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	f.body = body
	return body, nil
}
