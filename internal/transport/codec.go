// Shared compact float-vector codec. Gradient payloads dominate every frame
// this system persists or ships — batched uploads on the wire, model
// snapshots in a checkpoint directory — so the little-endian IEEE-754 layout
// the envelope frame uses for its float64 fields is exported here for every
// component that frames float64 vectors (internal/checkpoint reuses it verbatim for
// snapshot params and optimizer state).
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendFloat64s appends vec's compact binary encoding (8 bytes per element,
// little-endian IEEE-754) to dst and returns the extended slice.
func AppendFloat64s(dst []byte, vec []float64) []byte {
	dst = slices.Grow(dst, 8*len(vec))
	for _, v := range vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ReadFloat64s decodes n float64s from the front of b (as written by
// AppendFloat64s) and returns the vector and the remaining bytes. Short input
// is rejected with ErrMalformed — the caller framed the payload, so a
// truncated vector means the frame is corrupt.
func ReadFloat64s(b []byte, n int) ([]float64, []byte, error) {
	if n < 0 || n > MaxVectorLen {
		return nil, nil, fmt.Errorf("%w: vector length %d", ErrMalformed, n)
	}
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("%w: %d bytes for %d float64s", ErrMalformed, len(b), n)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:], nil
}
