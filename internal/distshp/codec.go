package distshp

// Binary codecs for the distshp wire messages. These replace per-message
// interface{} boxing at worker boundaries with flat encodings, so the
// engine's BytesSent is measured from real encoded bytes on every backend
// (and frames on the TCP transport carry exactly these encodings).

import (
	"encoding/binary"
	"fmt"
	"math"

	"shp/internal/pregel"
)

// bucketWireSize is msgBucket's fixed encoding: Data and New as
// little-endian uint32s.
const bucketWireSize = 8

func appendBucket(buf []byte, m msgBucket) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Data))
	return binary.LittleEndian.AppendUint32(buf, uint32(m.New))
}

func decodeBucket(data []byte) (msgBucket, error) {
	if len(data) < bucketWireSize {
		return msgBucket{}, fmt.Errorf("distshp: truncated msgBucket")
	}
	return msgBucket{
		Data: int32(binary.LittleEndian.Uint32(data[0:4])),
		New:  int32(binary.LittleEndian.Uint32(data[4:8])),
	}, nil
}

type bucketCodec struct{}

func (bucketCodec) Append(buf []byte, m pregel.Message) ([]byte, error) {
	return appendBucket(buf, m.(msgBucket)), nil
}

func (bucketCodec) Decode(data []byte) (pregel.Message, int, error) {
	m, err := decodeBucket(data)
	return m, bucketWireSize, err
}

func (bucketCodec) Size(pregel.Message) int { return bucketWireSize }

type bucketBatchCodec struct{}

func (bucketBatchCodec) Append(buf []byte, m pregel.Message) ([]byte, error) {
	batch := *m.(*msgBucketBatch)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, u := range batch {
		buf = appendBucket(buf, u)
	}
	return buf, nil
}

func (bucketBatchCodec) Decode(data []byte) (pregel.Message, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, 0, fmt.Errorf("distshp: truncated msgBucketBatch count")
	}
	if n > uint64(len(data)/bucketWireSize)+1 {
		return nil, 0, fmt.Errorf("distshp: msgBucketBatch count %d exceeds payload", n)
	}
	batch := make(msgBucketBatch, 0, n)
	for i := uint64(0); i < n; i++ {
		u, err := decodeBucket(data[used:])
		if err != nil {
			return nil, 0, err
		}
		used += bucketWireSize
		batch = append(batch, u)
	}
	return &batch, used, nil
}

func (bucketBatchCodec) Size(m pregel.Message) int {
	batch := *m.(*msgBucketBatch)
	n := 1
	for v := uint64(len(batch)); v >= 0x80; v >>= 7 {
		n++
	}
	return n + len(batch)*bucketWireSize
}

// deltaWireSize is msgDelta's fixed encoding: Bucket, COld, and CNew as
// little-endian uint32s. Receivers patch by table-value differences alone,
// so no query id travels with the record — a quarter of every
// late-iteration gain superstep's bytes saved relative to the earlier
// 16-byte encoding.
const deltaWireSize = 12

func appendDelta(buf []byte, m msgDelta) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Bucket))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.COld))
	return binary.LittleEndian.AppendUint32(buf, uint32(m.CNew))
}

func decodeDelta(data []byte) (msgDelta, error) {
	if len(data) < deltaWireSize {
		return msgDelta{}, fmt.Errorf("distshp: truncated msgDelta")
	}
	return msgDelta{
		Bucket: int32(binary.LittleEndian.Uint32(data[0:4])),
		COld:   int32(binary.LittleEndian.Uint32(data[4:8])),
		CNew:   int32(binary.LittleEndian.Uint32(data[8:12])),
	}, nil
}

type deltaCodec struct{}

func (deltaCodec) Append(buf []byte, m pregel.Message) ([]byte, error) {
	return appendDelta(buf, m.(msgDelta)), nil
}

func (deltaCodec) Decode(data []byte) (pregel.Message, int, error) {
	m, err := decodeDelta(data)
	return m, deltaWireSize, err
}

func (deltaCodec) Size(pregel.Message) int { return deltaWireSize }

type deltaBatchCodec struct{}

func (deltaBatchCodec) Append(buf []byte, m pregel.Message) ([]byte, error) {
	batch := *m.(*msgDeltaBatch)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, r := range batch {
		buf = appendDelta(buf, r)
	}
	return buf, nil
}

func (deltaBatchCodec) Decode(data []byte) (pregel.Message, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, 0, fmt.Errorf("distshp: truncated msgDeltaBatch count")
	}
	if n > uint64(len(data)/deltaWireSize)+1 {
		return nil, 0, fmt.Errorf("distshp: msgDeltaBatch count %d exceeds payload", n)
	}
	batch := make(msgDeltaBatch, 0, n)
	for i := uint64(0); i < n; i++ {
		r, err := decodeDelta(data[used:])
		if err != nil {
			return nil, 0, err
		}
		used += deltaWireSize
		batch = append(batch, r)
	}
	return &batch, used, nil
}

func (deltaBatchCodec) Size(m pregel.Message) int {
	batch := *m.(*msgDeltaBatch)
	n := 1
	for v := uint64(len(batch)); v >= 0x80; v >>= 7 {
		n++
	}
	return n + len(batch)*deltaWireSize
}

type gainCodec struct{}

func (gainCodec) Append(buf []byte, m pregel.Message) ([]byte, error) {
	g := m.(*msgGain)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Cur))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Oth)), nil
}

func (gainCodec) Decode(data []byte) (pregel.Message, int, error) {
	if len(data) < 16 {
		return nil, 0, fmt.Errorf("distshp: truncated msgGain")
	}
	return &msgGain{
		Cur: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
		Oth: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
	}, 16, nil
}

func (gainCodec) Size(pregel.Message) int { return 16 }

// newRegistry builds the codec registry every distributed run hands to the
// engine. Registration order fixes wire ids, so this is the single place
// the order is defined.
func newRegistry() *pregel.Registry {
	reg := pregel.NewRegistry()
	reg.Register(msgBucket{}, bucketCodec{})
	reg.Register((*msgBucketBatch)(nil), bucketBatchCodec{})
	reg.Register((*msgGain)(nil), gainCodec{})
	reg.Register(msgDelta{}, deltaCodec{})
	reg.Register((*msgDeltaBatch)(nil), deltaBatchCodec{})
	return reg
}
