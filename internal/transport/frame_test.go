package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// validEnvelope draws one envelope of type typ that passes validate.
func validEnvelope(rng *rand.Rand, typ MsgType) *Envelope {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	e := &Envelope{Type: typ, Iter: rng.Intn(1000), Epoch: rng.Intn(5), RootGen: rng.Intn(3)}
	switch typ {
	case MsgHello:
		e.Iter, e.Epoch = 0, 0
		e.WorkerID = HelloNewWorker + rng.Intn(2)*(2+rng.Intn(8))
		e.Codecs = grad.AdvertiseCodecs()
	case MsgAssign, MsgReassign:
		e.Assign = &Assignment{WorkerID: rng.Intn(8), Partitions: []int{0, 2}, RowCoeffs: vec(2), K: 4, S: 1}
	case MsgParams:
		e.Trace = rng.Uint64()
		e.Vector = vec(1 + rng.Intn(32))
	case MsgGradient:
		e.WorkerID = rng.Intn(8)
		e.Trace = rng.Uint64()
		e.Chunks = rng.Intn(3)
		if e.Chunks > 0 {
			e.Chunk = e.Chunks - 1
		}
		e.Spans = []PhaseSpan{{Phase: "compute", Seconds: rng.Float64()}, {Phase: "encode", Seconds: rng.Float64()}}
		e.Vector = vec(1 + rng.Intn(32))
	case MsgTelemetry:
		e.WorkerID = rng.Intn(8)
		e.Telemetry = &Telemetry{ComputeSeconds: rng.Float64(), UploadSeconds: rng.Float64(), Partitions: rng.Intn(9)}
	case MsgAdopt:
		e.Adopt = &Adoption{Group: rng.Intn(4), Epoch: rng.Intn(6) - 1, Members: []int{1, 3, 4 + rng.Intn(9)}}
		e.Codecs = grad.AdvertiseCodecs()
		e.Codec = byte(grad.CodecInt8)
	case MsgPartitionReq:
		e.Part = rng.Intn(100)
	case MsgPartition:
		e.Part = rng.Intn(100)
		e.Chunks = 1
		e.Blob = []byte("dataset piece")
	}
	return e
}

// randomEnvelope draws an envelope with arbitrary field values — any type
// including unknown ones, negative and extreme ints, NaN payload bits,
// infinities, nil and empty slices — most of which validate rejects. With
// nan false it draws no NaN, so reflect.DeepEqual can compare results.
func randomEnvelope(rng *rand.Rand, nan bool) *Envelope {
	anyInt := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(5)
		case 1:
			return -1 - rng.Intn(5)
		case 2:
			return int(rng.Uint64())
		}
		return []int{math.MaxInt, math.MinInt, math.MaxInt32}[rng.Intn(3)]
	}
	anyFloat := func() float64 {
		switch rng.Intn(6) {
		case 0:
			if nan {
				return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x000fffffffffffff)
			}
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2:
			return math.Copysign(0, -1)
		}
		return rng.NormFloat64()
	}
	anyBytes := func() []byte {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, 1+rng.Intn(20))
		rng.Read(b)
		return b
	}
	anyFloats := func() []float64 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		v := make([]float64, 1+rng.Intn(20))
		for i := range v {
			v[i] = anyFloat()
		}
		return v
	}
	anyInts := func() []int {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, 1+rng.Intn(8))
		for i := range v {
			v[i] = anyInt()
		}
		return v
	}
	e := &Envelope{
		Type: MsgType(rng.Intn(int(MsgPartition) + 3)),
		Iter: anyInt(), WorkerID: anyInt(), Epoch: anyInt(), RootGen: anyInt(),
		Chunk: anyInt(), Chunks: anyInt(), Part: anyInt(), QuantLen: anyInt(),
		Trace: rng.Uint64() >> rng.Intn(64),
		Codec: byte(rng.Intn(256)),
		Batch: anyBytes(), Blob: anyBytes(), Codecs: anyBytes(), Quant: anyBytes(),
		Vector: anyFloats(),
	}
	if rng.Intn(3) > 0 {
		e.Spans = make([]PhaseSpan, rng.Intn(4))
		for i := range e.Spans {
			e.Spans[i] = PhaseSpan{Phase: strings.Repeat("p", rng.Intn(70)), Seconds: anyFloat()}
		}
	}
	if rng.Intn(2) == 0 {
		e.Assign = &Assignment{WorkerID: anyInt(), Partitions: anyInts(), RowCoeffs: anyFloats(), K: anyInt(), S: anyInt()}
	}
	if rng.Intn(2) == 0 {
		e.Telemetry = &Telemetry{ComputeSeconds: anyFloat(), UploadSeconds: anyFloat(), Partitions: anyInt()}
	}
	if rng.Intn(2) == 0 {
		e.Adopt = &Adoption{Group: anyInt(), Epoch: anyInt(), Members: anyInts()}
	}
	return e
}

// TestFrameRoundTripProperty is the codec contract: every envelope, valid
// or not, decodes to exactly what was encoded — NaN payload bits, nil
// versus empty slices and negative values included — so validate sees the
// sender's values and reaches the same verdict. Over a connection, an
// invalid frame is rejected typed and a valid one arrives bit-exact.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		nan := trial%2 == 0
		e := randomEnvelope(rng, nan)
		frame := encodeFrames(t, e)
		got, err := decodeBody(frame[4:])
		if err != nil {
			t.Fatalf("trial %d: decode of %v frame: %v", trial, e.Type, err)
		}
		if re := encodeFrames(t, got); !bytes.Equal(re, frame) {
			t.Fatalf("trial %d: %v frame changed bits in a round trip", trial, e.Type)
		}
		if !nan && !reflect.DeepEqual(got, e) {
			t.Fatalf("trial %d: round trip changed the envelope:\ngot  %+v\nsent %+v", trial, got, e)
		}
		verr, gerr := e.validate(), got.validate()
		if (verr == nil) != (gerr == nil) || (verr != nil && verr.Error() != gerr.Error()) {
			t.Fatalf("trial %d: validate verdict changed: sent %v, decoded %v", trial, verr, gerr)
		}
		recvd, err := recvConn(frame).Recv()
		switch {
		case verr != nil:
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("trial %d: invalid %v frame (%v) reached Recv's caller: err %v", trial, e.Type, verr, err)
			}
		case e.Type != MsgBatch && len(e.Quant) == 0:
			if err != nil || !bytes.Equal(encodeFrames(t, recvd), frame) {
				t.Fatalf("trial %d: valid %v frame not received bit-exact: %v", trial, e.Type, err)
			}
		}
	}
	for typ := MsgHello; typ <= MsgPartition; typ++ {
		if typ == MsgBatch {
			continue
		}
		e := validEnvelope(rng, typ)
		got, err := recvConn(encodeFrames(t, e)).Recv()
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("valid %v frame: got %+v, err %v; sent %+v", typ, got, err, e)
		}
	}
}

// TestRecvReturnsOwnedSlices pins Recv's ownership rule: nothing it returns
// aliases the connection's reused buffers, so a caller handing envelopes to
// another goroutine (roster's readLoop) never sees them change under it.
func TestRecvReturnsOwnedSlices(t *testing.T) {
	first := []float64{1, 2, 3, 4}
	second := []float64{5, 6, 7, 8}
	c := recvConn(encodeFrames(t,
		&Envelope{Type: MsgParams, Iter: 1, Vector: first},
		&Envelope{Type: MsgPartition, Part: 1, Chunks: 1, Blob: []byte("aaaa")},
		&Envelope{Type: MsgParams, Iter: 2, Vector: second},
		&Envelope{Type: MsgPartition, Part: 1, Chunks: 1, Blob: []byte("bbbb")},
	))
	a, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vector {
		a.Vector[i] = -1
	}
	b, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Vector, second) {
		t.Fatalf("mutating a returned vector corrupted the next Recv: %v", b.Vector)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if string(blobA.Blob) != "aaaa" {
		t.Fatalf("a later Recv overwrote an earlier blob: %q", blobA.Blob)
	}
}

// TestFrameSizes pins the encoded sizes of a small flat cluster's
// per-iteration frames (dim 27, raw codec, trace context on): the
// parameter broadcast, a gradient upload with its three echoed phase spans,
// and the telemetry report. Their sum must stay at or below the 637 B the
// gob encoding took for the same frames in steady state.
func TestFrameSizes(t *testing.T) {
	const iter, epoch = 300, 2
	trace := uint64(1<<63 | epoch<<32 | iter)
	vec := make([]float64, 27)
	params := &Envelope{Type: MsgParams, Iter: iter, Epoch: epoch, Trace: trace, Vector: vec}
	gradient := &Envelope{Type: MsgGradient, Iter: iter, Epoch: epoch, WorkerID: 3, Trace: trace, Vector: vec,
		Spans: []PhaseSpan{{Phase: "compute", Seconds: 0.001}, {Phase: "encode", Seconds: 0.0001}, {Phase: "upload", Seconds: 0.0002}}}
	telemetry := &Envelope{Type: MsgTelemetry, Iter: iter, Epoch: epoch, WorkerID: 3,
		Telemetry: &Telemetry{ComputeSeconds: 0.001, UploadSeconds: 0.0002, Partitions: 2}}
	sum := 0
	for _, c := range []struct {
		env  *Envelope
		want int
	}{{params, 248}, {gradient, 294}, {telemetry, 40}} {
		n := len(encodeFrames(t, c.env))
		if n != c.want {
			t.Errorf("%v frame: %d B, want %d", c.env.Type, n, c.want)
		}
		sum += n
	}
	if sum > 637 {
		t.Fatalf("per-iteration frames total %d B, above the gob steady state of 637 B", sum)
	}
}

// TestRecvBoundsHostileLength sends a 4-byte header claiming a body of
// about 1 GiB and then hangs up: Recv must fail without allocating the
// claimed body. A header over the frame cap fails on the header alone.
func TestRecvBoundsHostileLength(t *testing.T) {
	hostile := []byte{0x3f, 0xff, 0xff, 0xff}
	c := recvConn(hostile)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Recv of a truncated 1 GiB frame: err = %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Recv allocated %d B for a frame whose body never arrived", alloc)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv succeeded after a framing error")
	}

	// Past the cap, and not at stream start: a plain framing error, not a
	// version mismatch.
	over := append(encodeFrames(t, &Envelope{Type: MsgShutdown}), 0x7f, 0xff, 0xff, 0xff, 1, 2, 3)
	c = recvConn(over)
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err == nil || errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversized length prefix: err = %v", err)
	}
}

// gobHello is the opening of a connection from a peer that speaks the
// gob-encoded protocol (version 1): a gob stream carrying a hello.
func gobHello(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{Type: MsgHello, WorkerID: HelloNewWorker}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProtocolVersionMismatch covers both kinds of foreign peer: a gob
// peer fails at its first bytes, and a binary peer on another version
// fails at its handshake frame with the stream still in sync. Both errors
// name the two versions and wrap ErrMalformed.
func TestProtocolVersionMismatch(t *testing.T) {
	c := recvConn(gobHello(t))
	_, err := c.Recv()
	if !errors.Is(err, ErrProtocolVersion) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("gob hello: err = %v, want ErrProtocolVersion", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, "v2") {
		t.Fatalf("gob hello error does not name both versions: %v", err)
	}
	if _, err := c.Recv(); err == nil || errors.Is(err, ErrMalformed) {
		t.Fatalf("Recv after a gob opening: err = %v, want a connection error", err)
	}

	future := encodeFrames(t, &Envelope{Type: MsgHello, WorkerID: HelloNewWorker})
	future[5] = ProtocolVersion + 1 // the version byte follows the one-byte type
	c = recvConn(append(future, encodeFrames(t, &Envelope{Type: MsgShutdown})...))
	_, err = c.Recv()
	if !errors.Is(err, ErrProtocolVersion) || !strings.Contains(err.Error(), "v3") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("v3 hello: err = %v, want ErrProtocolVersion naming v3 and v2", err)
	}
	if e, err := c.Recv(); err != nil || e.Type != MsgShutdown {
		t.Fatalf("frame after a version mismatch: %+v, %v", e, err)
	}
}

// BenchmarkBroadcastParams100k measures one parameter broadcast at the
// wide-int8 model dimension (100,010 floats): the frame is encoded once and
// written to 5 loopback receivers, each decoding it in its own goroutine.
// B/op covers the sender and all receivers; wire-B/iter is the bytes sent.
func BenchmarkBroadcastParams100k(b *testing.B) {
	const receivers, dim = 5, 100_010
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	senders := make([]*Conn, receivers)
	recvErr := make(chan error, receivers)
	for i := range senders {
		accepted := make(chan *Conn, 1)
		go func() {
			c, err := lis.Accept()
			if err != nil {
				accepted <- nil
				return
			}
			accepted <- c
		}()
		if senders[i], err = Dial(lis.Addr(), time.Second); err != nil {
			b.Fatal(err)
		}
		defer senders[i].Close()
		rx := <-accepted
		if rx == nil {
			b.Fatal("accept failed")
		}
		defer rx.Close()
		go func() {
			for n := 0; n < b.N; n++ {
				e, err := rx.Recv()
				if err == nil && len(e.Vector) != dim {
					err = errors.New("short params vector")
				}
				if err != nil {
					recvErr <- err
					return
				}
			}
			recvErr <- nil
		}()
	}
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(i) * 1e-3
	}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	_, _, _, bytesBefore, _, _ := Wire()
	for n := 0; n < b.N; n++ {
		if frame, err = AppendFrame(frame[:0], &Envelope{Type: MsgParams, Iter: n, Vector: params}); err != nil {
			b.Fatal(err)
		}
		for _, c := range senders {
			if err := c.SendFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	for range senders {
		if err := <-recvErr; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, _, _, bytesAfter, _, _ := Wire()
	b.ReportMetric(float64(bytesAfter-bytesBefore)/float64(b.N), "wire-B/iter")
}
