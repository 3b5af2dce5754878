package pregel

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeFrame drives the TCP transport's frame decoder with arbitrary
// payloads and envelope counts: it must return a *FrameError or accept,
// never panic, and an accepted frame must hold exactly count envelopes and
// re-encode to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	reg.Register(int64(0), Int64Codec{})
	var frame []byte
	for _, env := range []envelope{
		{dst: 3, msg: 1.5},
		{dst: 0, msg: int64(-7)},
		{dst: 1 << 40, msg: math.Inf(-1)},
		{dst: 200, msg: int64(math.MinInt64)},
	} {
		var err error
		if frame, err = reg.appendEnvelope(frame, env); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(frame, uint32(4))
	f.Add(frame, uint32(3))                // trailing bytes
	f.Add(frame[:len(frame)-1], uint32(4)) // truncated last envelope
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{}, uint32(math.MaxUint32))
	f.Add([]byte{0x80, 0x00, 1, 0x02}, uint32(1)) // non-minimal destination
	f.Add([]byte{0, 1, 0x80, 0x00}, uint32(1))    // non-minimal int64
	f.Add([]byte{0, 9, 0, 0}, uint32(1))          // unknown codec id
	f.Fuzz(func(t *testing.T, payload []byte, count uint32) {
		envs, err := decodeFrame(reg, payload, count, nil)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FrameError", err, err)
			}
			return
		}
		if len(envs) != int(count) {
			t.Fatalf("accepted %d envelopes for count %d", len(envs), count)
		}
		var re []byte
		for _, env := range envs {
			if re, err = reg.appendEnvelope(re, env); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encoded frame %x differs from accepted %x", re, payload)
		}
	})
}
