package transport

import (
	"encoding/binary"
	"runtime"
	"testing"

	"scrub/internal/event"
)

// TestDecodeLyingTupleCountBounded is the amplification guard: a frame's
// tuple count is checked against the bytes left at 17 bytes a tuple (the
// smallest encoding), so a 4 MiB frame claiming 4M tuples is rejected
// before anything is allocated for them, and the largest claim the
// guard admits still costs less than 3× the frame.
func TestDecodeLyingTupleCountBounded(t *testing.T) {
	const frameLen = 4 << 20
	header := func(n uint64) []byte {
		b := []byte{tagTupleBatch}
		b = binary.LittleEndian.AppendUint64(b, 1) // query id
		b = append(b, 1, 'h', 0)                   // host id "h", type 0
		return binary.AppendUvarint(b, n)
	}
	for _, tc := range []struct {
		name string
		n    uint64
	}{
		{"4M tuples claimed", 4 << 20},
		{"largest admitted claim", (frameLen - uint64(len(header(frameLen)))) / minTupleBytes},
	} {
		// Zero bytes decode as value-less tuples, so the admitted claim
		// decodes every tuple it can and fails only at the counters.
		frame := header(tc.n)
		frame = append(frame, make([]byte, frameLen-len(frame))...)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Decode(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decode accepted a truncated frame", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 3*frameLen {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes (≥ 3× the frame)", tc.name, frameLen, grew)
		}
	}
}

// loopConn replays one frame forever, so Recv can be measured in a loop.
type loopConn struct {
	byteConn
	frame []byte
	off   int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

// TestRecvTupleBatchAllocs pins the steady-state cost of receiving a
// batch on a data connection: the reused frame buffer and the
// connection's repeated host id cost nothing, leaving the tuple slice,
// the one value arena every tuple's Values views, and the message box.
func TestRecvTupleBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tuples := make([]Tuple, 256)
	for i := range tuples {
		tuples[i] = Tuple{RequestID: uint64(i), TsNanos: int64(i), Values: []event.Value{event.Int(int64(i))}}
	}
	payload, err := Encode(TupleBatch{QueryID: 1, HostID: "bid-sj-1", Tuples: tuples})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	c := NewConn(&loopConn{frame: append(frame, payload...)})
	recv := func() {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if tb := m.(TupleBatch); len(tb.Tuples) != 256 || tb.HostID != "bid-sj-1" {
			t.Fatalf("decoded %d tuples from %q", len(tb.Tuples), tb.HostID)
		}
	}
	recv() // sizes the frame buffer and caches the host id
	if got := testing.AllocsPerRun(100, recv); got > 3 {
		t.Errorf("Recv of a 256-tuple int batch: %v allocs, want ≤ 3", got)
	}
}
