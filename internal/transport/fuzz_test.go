package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/grad"
)

// memConn adapts a byte buffer to net.Conn so Recv can be driven from fuzz
// data without sockets; writes vanish.
type memConn struct{ r *bytes.Reader }

func (c *memConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// recvConn returns a Conn whose Recv reads data.
func recvConn(data []byte) *Conn { return NewConn(&memConn{r: bytes.NewReader(data)}) }

// encodeFrames encodes a sequence of envelopes into one byte stream, the
// exact bytes Send would put on the wire.
func encodeFrames(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	var buf []byte
	for _, e := range envs {
		var err error
		if buf, err = AppendFrame(buf, e); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// batchFrame wraps envs in one MsgBatch frame, built like SendBatch does.
func batchFrame(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	payload, err := encodeBatch(nil, envs)
	if err != nil {
		t.Fatal(err)
	}
	return encodeFrames(t, &Envelope{Type: MsgBatch, Batch: payload})
}

// checkRecvStream is the invariant every frame fuzzer asserts: Recv over
// arbitrary bytes yields structurally valid envelopes — fully dequantized,
// adoptions and vectors within their caps — or errors: typed ErrMalformed
// for rejected frames (the stream stays in sync, so reading continues) and
// a sticky connection error once the framing is lost. Never a panic.
func checkRecvStream(t *testing.T, data []byte) {
	c := recvConn(data)
	for {
		env, err := c.Recv()
		if err != nil {
			if errors.Is(err, ErrMalformed) {
				continue
			}
			if _, again := c.Recv(); again == nil {
				t.Fatalf("Recv succeeded after a framing error %v", err)
			}
			return
		}
		if err := env.validate(); err != nil {
			t.Fatalf("Recv returned an invalid envelope: %v", err)
		}
		if env.Type == MsgBatch {
			t.Fatal("Recv returned an unpacked batch")
		}
		if len(env.Quant) != 0 || env.QuantLen != 0 {
			t.Fatalf("Recv leaked a quantized payload: %+v", env)
		}
		if len(env.Vector) > MaxVectorLen {
			t.Fatalf("Recv returned an oversized vector (%d elements)", len(env.Vector))
		}
		if a := env.Adopt; env.Type == MsgAdopt && (a == nil || a.Group < 0 || a.Epoch < -1 || len(a.Members) > MaxAdoptMembers) {
			t.Fatalf("Recv returned an invalid adoption: %+v", a)
		}
		// An accepted frame re-encodes and decodes to itself, bit for bit.
		frame := encodeFrames(t, env)
		again, err := recvConn(frame).Recv()
		if err != nil || !bytes.Equal(encodeFrames(t, again), frame) {
			t.Fatalf("accepted %v frame does not round-trip: %v", env.Type, err)
		}
	}
}

// seedAdoption adds adoption-handshake streams: valid requests and acks,
// truncations, and adoptions that break their invariants.
func seedAdoption(f *testing.F) {
	valid := encodeFrames(f,
		&Envelope{Type: MsgAdopt, RootGen: 2, Adopt: &Adoption{Group: 1, Epoch: 4, Members: []int{1, 2, 5}}},
		&Envelope{Type: MsgAdopt, Iter: 17, RootGen: 3, Adopt: &Adoption{Group: 1, Epoch: -1}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt, RootGen: -2, Adopt: &Adoption{}}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgAdopt, Adopt: &Adoption{Group: 0, Epoch: 0, Members: []int{9, 1}}}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgParams, Adopt: &Adoption{Group: 0, Epoch: 0}}))
	f.Add([]byte("not a frame at all"))
}

// seedQuant adds quantized gradient uploads under every codec, batched and
// single, plus corrupt codec bytes and payloads.
func seedQuant(f *testing.F) {
	vec := []float64{1.5, -0.25, 3, 0, -7.125, 2, 2, 2}
	for _, codec := range []grad.Codec{grad.CodecFP16, grad.CodecInt8, grad.CodecTopK, grad.CodecDelta} {
		frames, err := ChunkGradientQuant(Envelope{WorkerID: 2, Iter: 5}, vec, 3, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batchFrame(f, frames...))
	}
	f.Add(encodeFrames(f, &Envelope{Type: MsgGradient, Codec: byte(grad.CodecDelta), Quant: []byte{0, 0}, QuantLen: 2}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgGradient, Codec: 99, Quant: []byte{1}, QuantLen: 1}))
	f.Add(encodeFrames(f, &Envelope{Type: MsgHello, WorkerID: 1, Codecs: grad.AdvertiseCodecs()}))
	f.Add([]byte{0, 0, 0, 3, 0x02, 0xff, 0x00})
}

// FuzzFrame feeds arbitrary bytes into Recv. Its seeds are encoder output
// for every message type: handshakes, assignments, parameter broadcasts,
// raw, chunked, traced and quantized gradients, telemetry, batches,
// adoptions and data-plane partitions — plus truncations and a gob stream.
func FuzzFrame(f *testing.F) {
	seedAdoption(f)
	seedQuant(f)
	rng := rand.New(rand.NewSource(23))
	var all []*Envelope
	for typ := MsgHello; typ <= MsgPartition; typ++ {
		if typ == MsgBatch {
			continue
		}
		e := validEnvelope(rng, typ)
		all = append(all, e)
		f.Add(encodeFrames(f, e))
	}
	stream := encodeFrames(f, all...)
	f.Add(stream)
	f.Add(stream[:len(stream)-5])
	f.Add(batchFrame(f, ChunkGradient(Envelope{WorkerID: 1, Trace: 7, Spans: []PhaseSpan{{Phase: "compute", Seconds: 0.5}}}, []float64{1, 2, 3, 4, 5}, 2)...))
	f.Add(batchFrame(f, ChunkBlob(Envelope{Part: 4}, []byte("partition bytes"), 4)...))
	f.Add(append(gobHello(f), stream...))
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff})
	f.Fuzz(checkRecvStream)
}

// FuzzAdoption is FuzzFrame's invariant over the adoption seeds alone.
func FuzzAdoption(f *testing.F) {
	seedAdoption(f)
	f.Fuzz(checkRecvStream)
}

// FuzzQuantizedFrame is FuzzFrame's invariant over the quantized-upload
// seeds alone.
func FuzzQuantizedFrame(f *testing.F) {
	seedQuant(f)
	f.Fuzz(checkRecvStream)
}
