package transport

import (
	"errors"
	"math"
	"testing"

	"github.com/hetgc/hetgc/internal/grad"
)

// TestLargeChunkIndexNotTruncated pins the regression where a Chunk above
// the uint32 range was silently truncated by a fixed-width sub-frame header
// and decoded as a plausible chunk index. Varint fields carry the full
// value, so the receiver sees the real index and rejects the sequence.
func TestLargeChunkIndexNotTruncated(t *testing.T) {
	ok := &Envelope{Type: MsgGradient, Chunk: 3, Chunks: 10, Vector: []float64{1}}
	huge := &Envelope{Type: MsgGradient, Chunk: math.MaxUint32>>1 + 1, Chunks: 10, Vector: []float64{1}}
	got, err := decodeBody(encodeFrames(t, huge)[4:])
	if err != nil || got.Chunk != huge.Chunk {
		t.Fatalf("chunk index %d decoded as %+v, err %v", huge.Chunk, got, err)
	}
	payload, err := encodeBatch(nil, []*Envelope{ok, huge})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBatch(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decodeBatch(oversized chunk index) = %v, want ErrMalformed", err)
	}
}

// TestSendBatchSingleRejectsBatch pins the regression where SendBatch's
// single-envelope shortcut skipped the nested-batch rejection, letting a
// hand-built MsgBatch envelope ship unvalidated.
func TestSendBatchSingleRejectsBatch(t *testing.T) {
	a, _ := pipePair(t)
	err := a.SendBatch([]*Envelope{{Type: MsgBatch, Batch: []byte{1, 2, 3}}})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("SendBatch(single MsgBatch) = %v, want ErrMalformed", err)
	}
}

// TestQuantRoundTripOverWire ships a chunked gradient through a real
// connection under every codec, both batched and as single frames, and
// checks the receiver — which only ever sees
// dequantized Vectors — reassembles it within the codec's error model.
func TestQuantRoundTripOverWire(t *testing.T) {
	vec := make([]float64, 1000)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%17)
	}
	for _, codec := range []grad.Codec{grad.CodecRaw, grad.CodecFP16, grad.CodecInt8, grad.CodecTopK, grad.CodecDelta} {
		for _, chunkLen := range []int{0, 64} { // 0: one frame; 64: batched sub-frames
			a, b := pipePair(t)
			frames, err := ChunkGradientQuant(Envelope{WorkerID: 3, Iter: 7}, vec, chunkLen, codec)
			if err != nil {
				t.Fatal(err)
			}
			if codec != grad.CodecRaw {
				for _, f := range frames {
					if len(f.Quant) == 0 || f.Codec != byte(codec) || f.Vector != nil {
						t.Fatalf("%s: frame not quantized: %+v", codec, f)
					}
				}
			}
			if err := a.SendBatch(frames); err != nil {
				t.Fatal(err)
			}
			var got []*Envelope
			for range frames {
				e, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(e.Quant) != 0 || e.QuantLen != 0 {
					t.Fatalf("%s: Recv leaked a quantized payload above the transport", codec)
				}
				got = append(got, e)
			}
			joined, err := JoinChunks(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if len(joined) != len(vec) {
				t.Fatalf("%s: joined %d elements, want %d", codec, len(joined), len(vec))
			}
			checkCodecError(t, codec, vec, joined, chunkLen)
			ReleaseQuant(frames)
			a.Close()
			b.Close()
		}
	}
}

// checkCodecError asserts the decoded vector against the codec's error
// model: bit-exact for lossless codecs, bounded relative error for the
// quantizers, exact-or-zero for the sparsifier.
func checkCodecError(t *testing.T, codec grad.Codec, want, got []float64, chunkLen int) {
	t.Helper()
	mx := 0.0
	for _, v := range want {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	for i := range want {
		switch codec {
		case grad.CodecRaw, grad.CodecDelta:
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d not bit-exact: %v != %v", codec, i, got[i], want[i])
			}
		case grad.CodecFP16:
			if math.Abs(got[i]-want[i]) > 1e-3*mx {
				t.Fatalf("fp16: element %d error %v above 1e-3·maxabs", i, math.Abs(got[i]-want[i]))
			}
		case grad.CodecInt8:
			// Per-chunk bound is maxabs/254 of the int8 scale chunk; the
			// global maxabs bound is looser but always valid.
			if math.Abs(got[i]-want[i]) > mx/254+mx*1e-6 {
				t.Fatalf("int8: element %d error %v above maxabs/254", i, math.Abs(got[i]-want[i]))
			}
		case grad.CodecTopK:
			if got[i] != 0 && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("topk: element %d neither dropped nor exact: %v != %v", i, got[i], want[i])
			}
		}
	}
}

// TestMixedVersionRawFallback covers the no-codec peer path at the frame
// level: envelopes with no codec fields (what a peer that advertises no
// codecs sends) round-trip as raw float64, and a hello without a codec
// advertisement still validates.
func TestMixedVersionRawFallback(t *testing.T) {
	a, b := pipePair(t)
	defer a.Close()
	defer b.Close()
	if err := a.Send(&Envelope{Type: MsgHello, WorkerID: HelloNewWorker}); err != nil {
		t.Fatal(err)
	}
	hello, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(hello.Codecs) != 0 || hello.Codec != 0 {
		t.Fatalf("legacy hello grew codec fields: %+v", hello)
	}
	vec := []float64{1.5, -2.25, 0, 3.75}
	if err := a.Send(&Envelope{Type: MsgGradient, Iter: 1, WorkerID: 4, Vector: vec}); err != nil {
		t.Fatal(err)
	}
	e, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if math.Float64bits(e.Vector[i]) != math.Float64bits(vec[i]) {
			t.Fatalf("raw gradient element %d not bit-exact", i)
		}
	}
	// An upgraded peer's hello with an advertisement also validates.
	adv := &Envelope{Type: MsgHello, WorkerID: HelloNewWorker, Codecs: grad.AdvertiseCodecs()}
	if err := adv.validate(); err != nil {
		t.Fatalf("advertised hello rejected: %v", err)
	}
}

// TestQuantCorruptionRejected sends hostile quantized frames — unknown codec
// bytes, payloads that do not decode, advertisements on the wrong message
// types — and requires a typed ErrMalformed for each, with the connection
// still usable afterwards where the stream stays in sync.
func TestQuantCorruptionRejected(t *testing.T) {
	goodQuant := func() ([]byte, int) {
		q, err := grad.AppendQuantized(nil, grad.CodecFP16, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return q, 3
	}
	q, n := goodQuant()

	hostile := []struct {
		name string
		env  *Envelope
	}{
		{"unknown codec byte", &Envelope{Type: MsgGradient, Codec: 99, Quant: q, QuantLen: n}},
		{"raw codec with quant payload", &Envelope{Type: MsgGradient, Codec: 0, Quant: q, QuantLen: n}},
		{"undecodable payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecInt8), Quant: q, QuantLen: n}},
		{"truncated payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q[:5], QuantLen: n}},
		{"both payloads", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q, QuantLen: n, Vector: []float64{1}}},
		{"zero quant length", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: q}},
		{"oversized quant payload", &Envelope{Type: MsgGradient, Codec: byte(grad.CodecDelta), Quant: make([]byte, 200), QuantLen: 2}},
		{"advertisement on gradient", &Envelope{Type: MsgGradient, Vector: []float64{1}, Codecs: []byte{1}}},
		{"unknown advertised codec", &Envelope{Type: MsgHello, WorkerID: 1, Codecs: []byte{7}}},
		{"codec byte on params", &Envelope{Type: MsgParams, Vector: []float64{1}, Codec: byte(grad.CodecInt8)}},
	}
	for _, tc := range hostile {
		a, b := pipePair(t)
		if err := a.Send(tc.env); err != nil {
			t.Fatalf("%s: send failed locally: %v", tc.name, err)
		}
		if _, err := b.Recv(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: Recv = %v, want ErrMalformed", tc.name, err)
		}
		a.Close()
		b.Close()
	}

	// Batch-framed corruption: a sub-frame with an unknown gradient codec
	// byte, one whose payload fails to dequantize, and a truncated batch.
	valid, _ := ChunkGradientQuant(Envelope{WorkerID: 1}, []float64{1, 2, 3, 4}, 2, grad.CodecFP16)
	for name, sub := range map[string]*Envelope{
		"unknown sub-frame gradient codec": {Type: MsgGradient, Codec: 0x07, Quant: valid[1].Quant, QuantLen: 2},
		"mismatched quant length":          {Type: MsgGradient, Codec: byte(grad.CodecFP16), Quant: valid[1].Quant, QuantLen: 9},
	} {
		payload, err := encodeBatch(nil, []*Envelope{valid[0], sub})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBatch(payload); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", name, err)
		}
	}
	raw, err := encodeBatch(nil, valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBatch(raw[:len(raw)-3]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated quant sub-frame accepted")
	}
}

// TestWireCodecCounters checks the per-codec gradient counters move with the
// payload that actually crossed the wire, raw and quantized.
func TestWireCodecCounters(t *testing.T) {
	a, b := pipePair(t)
	defer a.Close()
	defer b.Close()
	vec := make([]float64, 256)
	for i := range vec {
		vec[i] = float64(i)
	}
	_, rawOutBefore, _, rawBytesOutBefore := WireCodec(byte(grad.CodecRaw))
	int8InBefore, _, int8BytesInBefore, _ := WireCodec(byte(grad.CodecInt8))

	frames, err := ChunkGradientQuant(Envelope{WorkerID: 1}, vec, 64, grad.CodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch(frames); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Envelope{Type: MsgGradient, WorkerID: 1, Vector: vec}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frames)+1; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	_, rawOut, _, rawBytesOut := WireCodec(byte(grad.CodecRaw))
	if rawOut-rawOutBefore < 1 || rawBytesOut-rawBytesOutBefore < uint64(8*len(vec)) {
		t.Fatalf("raw out counters did not advance: frames %d bytes %d", rawOut-rawOutBefore, rawBytesOut-rawBytesOutBefore)
	}
	int8In, _, int8BytesIn, _ := WireCodec(byte(grad.CodecInt8))
	if int8In-int8InBefore < uint64(len(frames)) || int8BytesIn == int8BytesInBefore {
		t.Fatalf("int8 in counters did not advance: frames %d", int8In-int8InBefore)
	}
	if fi, fo, bi, bo := WireCodec(200); fi|fo|bi|bo != 0 {
		t.Fatal("out-of-range codec reads nonzero")
	}
}
