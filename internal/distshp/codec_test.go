package distshp

import (
	"reflect"
	"testing"

	"shp/internal/pregel"
)

func roundTrip(t *testing.T, c pregel.Codec, m pregel.Message) {
	t.Helper()
	buf, err := c.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != c.Size(m) {
		t.Fatalf("%T: Size = %d but Append wrote %d bytes", m, c.Size(m), len(buf))
	}
	got, used, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("%T: decode consumed %d of %d bytes", m, used, len(buf))
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%T round trip: got %+v, want %+v", m, got, m)
	}
}

func TestWireCodecs(t *testing.T) {
	roundTrip(t, bucketCodec{}, msgBucket{Data: 7, New: 3})
	roundTrip(t, bucketCodec{}, msgBucket{Data: 1 << 30, New: 6})
	roundTrip(t, gainCodec{}, &msgGain{Cur: 1.5, Oth: -2.25})
	roundTrip(t, gainCodec{}, &msgGain{})
	roundTrip(t, bucketBatchCodec{}, &msgBucketBatch{
		{Data: 1, New: 0},
		{Data: 2, New: 1},
		{Data: 3, New: 1},
	})
	roundTrip(t, deltaCodec{}, msgDelta{Bucket: 4, COld: 2, CNew: 3})
	roundTrip(t, deltaCodec{}, msgDelta{Bucket: 1 << 29, COld: 0, CNew: 7})
	roundTrip(t, deltaBatchCodec{}, &msgDeltaBatch{
		{Bucket: 2, COld: 3, CNew: 4},
		{Bucket: 3, COld: 1, CNew: 0},
		{Bucket: 2, COld: 0, CNew: 1},
	})
	roundTrip(t, deltaBatchCodec{}, &msgDeltaBatch{})
}

func TestCodecTruncation(t *testing.T) {
	if _, _, err := (bucketCodec{}).Decode([]byte{1, 2}); err == nil {
		t.Fatal("truncated msgBucket should fail")
	}
	if _, _, err := (gainCodec{}).Decode(make([]byte, 15)); err == nil {
		t.Fatal("truncated msgGain should fail")
	}
	if _, _, err := (bucketBatchCodec{}).Decode([]byte{200}); err == nil {
		t.Fatal("truncated batch count should fail")
	}
	if _, _, err := (bucketBatchCodec{}).Decode([]byte{3, 0, 0}); err == nil {
		t.Fatal("batch count exceeding payload should fail")
	}
	if _, _, err := (deltaCodec{}).Decode(make([]byte, deltaWireSize-1)); err == nil {
		t.Fatal("truncated msgDelta should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode(nil); err == nil {
		t.Fatal("empty msgDeltaBatch frame should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode([]byte{200}); err == nil {
		t.Fatal("truncated delta batch count should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode([]byte{2, 0, 0, 0}); err == nil {
		t.Fatal("delta batch count exceeding payload should fail")
	}
	buf, err := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{{Bucket: 2, COld: 0, CNew: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (deltaBatchCodec{}).Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("delta batch with truncated last record should fail")
	}
}

func TestCombineSemantics(t *testing.T) {
	g := combine(&msgGain{Cur: 1, Oth: 2}, &msgGain{Cur: 3, Oth: 4}).(*msgGain)
	if g.Cur != 4 || g.Oth != 6 {
		t.Fatalf("msgGain combine = %+v", g)
	}
	a := msgBucket{Data: 1}
	b := msgBucket{Data: 2}
	c := msgBucket{Data: 3}
	batch := *combine(combine(a, b), c).(*msgBucketBatch)
	if len(batch) != 3 || batch[0].Data != 1 || batch[2].Data != 3 {
		t.Fatalf("bucket batching = %+v", batch)
	}
	merged := *combine(combine(a, b), combine(c, msgBucket{Data: 4})).(*msgBucketBatch)
	if len(merged) != 4 {
		t.Fatalf("batch-batch combine = %+v", merged)
	}
}

// TestCombineDeltaRecords checks combiner behavior on merged delta records:
// any association order over the four record/batch pairings must flatten to
// the same batch with every record exactly once, in send order — merging
// already-merged batches neither drops nor duplicates records.
func TestCombineDeltaRecords(t *testing.T) {
	r := func(i int32) msgDelta { return msgDelta{Bucket: i % 4, COld: i, CNew: i + 1} }
	want := msgDeltaBatch{r(1), r(2), r(3), r(4)}
	cases := []struct {
		name string
		got  pregel.Message
	}{
		{"left-assoc (record+record, batch+record)", combine(combine(combine(r(1), r(2)), r(3)), r(4))},
		{"right-assoc (record+batch)", combine(r(1), combine(r(2), combine(r(3), r(4))))},
		{"balanced (batch+batch)", combine(combine(r(1), r(2)), combine(r(3), r(4)))},
	}
	for _, tc := range cases {
		got := *tc.got.(*msgDeltaBatch)
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d: %+v", tc.name, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
	// Re-merging merged batches keeps the flat record multiset intact.
	left := combine(r(1), r(2)).(*msgDeltaBatch)
	right := combine(r(3), r(4)).(*msgDeltaBatch)
	again := *combine(combine(left, right), combine(r(5), r(6))).(*msgDeltaBatch)
	if len(again) != 6 {
		t.Fatalf("re-merged batches hold %d records, want 6: %+v", len(again), again)
	}
	for i := range again {
		if again[i] != r(int32(i+1)) {
			t.Fatalf("re-merged record %d = %+v, want %+v", i, again[i], r(int32(i+1)))
		}
	}
}

// TestCombineRejectsMixedKinds pins the protocol invariant the combiner
// enforces: a vertex is either rebuilding (gains only) or clean (deltas
// only) within a superstep, so cross-kind merges must fail loudly.
func TestCombineRejectsMixedKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("combining msgGain with msgDelta should panic")
		}
	}()
	combine(&msgGain{Cur: 1}, msgDelta{Bucket: 1})
}
