// Fuzz coverage for the join/rejoin handshake decode path: whatever bytes a
// peer opens the connection with — truncated frames, duplicated frames,
// valid frames of the wrong type, garbage — ReadHello must either return a
// well-formed hello or an error wrapping transport.ErrMalformed. It must
// never panic, and a successful read must never hand the engine an invalid
// identity (the desync that would corrupt the roster).
//
// CI runs a short -fuzz smoke over this target (make fuzz-smoke); the seed
// corpus alone also runs as a regular test.
package roster_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/hetgc/hetgc/internal/roster"
	"github.com/hetgc/hetgc/internal/transport"
)

// memConn is a read-only net.Conn over a byte slice: the fuzzer's stand-in
// for a peer that wrote data and went away. Writes vanish, deadlines are
// no-ops.
type memConn struct{ r *bytes.Reader }

func (c memConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c memConn) Close() error                     { return nil }
func (c memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c memConn) SetDeadline(time.Time) error      { return nil }
func (c memConn) SetReadDeadline(time.Time) error  { return nil }
func (c memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// encodeFrames encodes envelopes back to back on one stream, exactly as a
// transport.Conn sender would.
func encodeFrames(envs ...*transport.Envelope) []byte {
	var buf []byte
	for _, env := range envs {
		var err error
		if buf, err = transport.AppendFrame(buf, env); err != nil {
			panic(err)
		}
	}
	return buf
}

// gobHello is what a peer speaking the gob-encoded protocol (version 1)
// opens a connection with.
func gobHello() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadHello(f *testing.F) {
	valid := encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker})
	resume := encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 7})
	f.Add(valid)
	f.Add(resume)
	// Truncated frame: the sender died mid-write.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	// Duplicated frame bytes: the stream replays its own prefix.
	f.Add(append(append([]byte{}, valid...), valid...))
	// Two well-formed hellos on one stream (a legitimate double hello).
	f.Add(encodeFrames(
		&transport.Envelope{Type: transport.MsgHello, WorkerID: transport.HelloNewWorker},
		&transport.Envelope{Type: transport.MsgHello, WorkerID: 3},
	))
	// Well-formed frames of the wrong type or shape.
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgParams, Vector: []float64{1, 2}}))
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 0}))
	f.Add(encodeFrames(&transport.Envelope{Type: transport.MsgHello, WorkerID: 4, Epoch: 9}))
	f.Add([]byte{})
	// A peer on the gob-encoded protocol: a typed version mismatch.
	f.Add(gobHello())
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		conn := transport.NewConn(memConn{r: bytes.NewReader(data)})
		// Read a few hellos off the same stream: a malformed second frame
		// must fail typed, not desync into a bogus success.
		for i := 0; i < 4; i++ {
			env, err := roster.ReadHello(conn)
			if err != nil {
				if !errors.Is(err, transport.ErrMalformed) {
					t.Fatalf("handshake error not typed ErrMalformed: %v", err)
				}
				return
			}
			if env.Type != transport.MsgHello {
				t.Fatalf("ReadHello accepted a %v frame", env.Type)
			}
			if env.WorkerID < transport.HelloNewWorker || env.WorkerID == 0 {
				t.Fatalf("ReadHello accepted invalid member id %d", env.WorkerID)
			}
			if env.Assign != nil || env.Telemetry != nil || len(env.Vector) != 0 || len(env.Batch) != 0 {
				t.Fatalf("ReadHello accepted a hello with payload: %+v", env)
			}
		}
	})
}
