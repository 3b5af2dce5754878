package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestNewEngineRequiresDenseIDs pins the engine's id contract: vertex ids
// must be exactly 0..N-1, in any order.
func TestNewEngineRequiresDenseIDs(t *testing.T) {
	compute := func(*Context, *Vertex, []Message) {}
	build := func(ids []VertexID) []*Vertex {
		vs := make([]*Vertex, len(ids))
		for i, id := range ids {
			vs[i] = &Vertex{ID: id}
		}
		return vs
	}
	for _, tc := range []struct {
		name string
		ids  []VertexID
	}{
		{"negative", []VertexID{0, -1, 1}},
		{"id equal to N", []VertexID{0, 1, 3}},
		{"far above N", []VertexID{0, 1 << 40}},
		{"gap at zero", []VertexID{1, 2, 3}},
		{"duplicate", []VertexID{0, 1, 1}},
	} {
		if _, err := NewEngine(Options{Compute: compute, MaxSupersteps: 1}, build(tc.ids)); err == nil {
			t.Errorf("%s: ids %v accepted, want an error", tc.name, tc.ids)
		}
	}

	ids := []VertexID{2, 0, 3, 1}
	eng, err := NewEngine(Options{Compute: compute, MaxSupersteps: 1, Workers: 3}, build(ids))
	if err != nil {
		t.Fatalf("shuffled dense ids rejected: %v", err)
	}
	for id := VertexID(0); id < 4; id++ {
		if v := eng.Vertex(id); v == nil || v.ID != id {
			t.Fatalf("Vertex(%d) = %v", id, v)
		}
	}
	if eng.Vertex(-1) != nil || eng.Vertex(4) != nil {
		t.Fatal("Vertex outside [0, N) should be nil")
	}
	for _, w := range eng.workers {
		for i := 1; i < len(w.vertices); i++ {
			if w.vertices[i-1].ID >= w.vertices[i].ID {
				t.Fatalf("worker %d vertices not id-sorted", w.id)
			}
		}
	}
	if _, err := NewEngine(Options{Compute: compute, MaxSupersteps: 1}, nil); err != nil {
		t.Fatalf("empty vertex set rejected: %v", err)
	}
}

// TestSendOutsideIDRangeIsDropped pins where out-of-range sends go: Send
// drops them at the sender, so they never reach compute, Stats, or the
// wire, on either transport, with or without a combiner.
func TestSendOutsideIDRangeIsDropped(t *testing.T) {
	const n = 12
	for _, transport := range []string{"memory", "tcp"} {
		for _, combine := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				vs := buildChain(n)
				opts := Options{
					Workers:       workers,
					MaxSupersteps: 3,
					Codecs:        floatRegistry(),
					Compute: func(ctx *Context, v *Vertex, msgs []Message) {
						if ctx.Superstep() == 0 {
							ctx.Send(-1, 5.0)
							ctx.Send(VertexID(n), 5.0)
							ctx.Send(1<<40, 5.0)
							ctx.Send((v.ID+1)%n, 1.0)
						} else {
							sum := 0.0
							for _, m := range msgs {
								sum += m.(float64)
							}
							v.State = sum
						}
						ctx.VoteToHalt()
					},
				}
				if transport == "tcp" {
					opts.Transport = TCPTransport()
				}
				if combine {
					opts.Combiner = func(a, b Message) Message { return a.(float64) + b.(float64) }
				}
				eng, err := NewEngine(opts, vs)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s combine=%v workers=%d", transport, combine, workers)
				for i := 0; i < n; i++ {
					if got := eng.Vertex(VertexID(i)).State.(float64); got != 1 {
						t.Fatalf("%s: vertex %d received %v, want only its neighbor's 1", name, i, got)
					}
				}
				if stats.TotalMessages != n {
					t.Fatalf("%s: TotalMessages = %d, want %d (out-of-range sends never counted)", name, stats.TotalMessages, n)
				}
			}
		}
	}
}

// sumMsg is a pointer message that combineSumInPlace folds in place.
type sumMsg struct{ N, S int64 }

type sumMsgCodec struct{}

func (sumMsgCodec) Append(buf []byte, m Message) ([]byte, error) {
	s := m.(*sumMsg)
	return binary.AppendVarint(binary.AppendVarint(buf, s.N), s.S), nil
}

func (sumMsgCodec) Decode(data []byte) (Message, int, error) {
	n, a := binary.Varint(data)
	if a <= 0 {
		return nil, 0, errors.New("truncated sumMsg")
	}
	s, b := binary.Varint(data[a:])
	if b <= 0 {
		return nil, 0, errors.New("truncated sumMsg")
	}
	return &sumMsg{N: n, S: s}, a + b, nil
}

func (sumMsgCodec) Size(m Message) int {
	s := m.(*sumMsg)
	return zigzagLen(s.N) + zigzagLen(s.S)
}

// combineSumInPlace mutates and returns its first argument, as the
// Options.Combiner contract allows.
func combineSumInPlace(a, b Message) Message {
	x, y := a.(*sumMsg), b.(*sumMsg)
	x.N += y.N
	x.S += y.S
	return x
}

// pointerSumRun floods fresh *sumMsg pointers for a few supersteps; each vertex folds what it receives into an order-mixing
// int64 state, so a lost, duplicated, or aliased message changes the result.
func pointerSumRun(t *testing.T, workers int, transport Transport, combine bool, cp Checkpointer) ([]int64, *Stats) {
	t.Helper()
	const n, steps = 40, 8
	vs := make([]*Vertex, n)
	for i := range vs {
		vs[i] = &Vertex{ID: VertexID(i), State: int64(0)}
	}
	codecs := NewRegistry()
	codecs.Register((*sumMsg)(nil), sumMsgCodec{})
	snaps := NewRegistry()
	snaps.Register(int64(0), Int64Codec{})
	opts := Options{
		Workers:         workers,
		MaxSupersteps:   steps,
		Transport:       transport,
		Codecs:          codecs,
		Checkpointer:    cp,
		CheckpointEvery: 2,
		Snapshots:       snaps,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			var sumN, sumS int64
			for _, m := range msgs {
				s := m.(*sumMsg)
				sumN += s.N
				sumS += s.S
			}
			v.State = v.State.(int64)*7 + sumN*1000 + sumS
			if ctx.Superstep() < steps-2 {
				for d := 0; d < 5; d++ {
					// Two send patterns shared by half the vertices each,
					// so every worker count has senders to combine.
					dst := VertexID((int(v.ID)%2 + d*7 + ctx.Superstep()) % n)
					ctx.Send(dst, &sumMsg{N: 1, S: int64(v.ID) + 1})
				}
			}
			ctx.VoteToHalt()
		},
	}
	if combine {
		opts.Combiner = combineSumInPlace
	}
	eng, err := NewEngine(opts, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = eng.Vertex(VertexID(i)).State.(int64)
	}
	return out, stats
}

// TestInPlaceCombinerPointerMessages: a combiner that folds pointer messages
// in place gives the uncombined single-worker result on both transports at
// every worker count, and across a worker kill with checkpoint rollback
// (whose snapshots carry pending pointer messages through the codec).
func TestInPlaceCombinerPointerMessages(t *testing.T) {
	want, plain := pointerSumRun(t, 1, MemoryTransport(), false, nil)
	check := func(name string, got []int64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: vertex %d = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		mem, memStats := pointerSumRun(t, workers, MemoryTransport(), true, nil)
		check(fmt.Sprintf("memory workers=%d", workers), mem)
		tcp, tcpStats := pointerSumRun(t, workers, TCPTransport(), true, nil)
		check(fmt.Sprintf("tcp workers=%d", workers), tcp)
		if memStats.TotalMessages != tcpStats.TotalMessages || memStats.TotalMessages >= plain.TotalMessages {
			t.Fatalf("workers=%d: combined messages memory %d, tcp %d, uncombined %d",
				workers, memStats.TotalMessages, tcpStats.TotalMessages, plain.TotalMessages)
		}
	}
	for _, inner := range []struct {
		name string
		t    func() Transport
	}{{"memory", MemoryTransport}, {"tcp", TCPTransport}} {
		faulty := FaultyTransport(inner.t(), FaultPlan{KillWorker: 1, KillStep: 5})
		got, stats := pointerSumRun(t, 3, faulty, true, NewMemoryCheckpointer())
		check(inner.name+" with kill", got)
		if stats.Recoveries != 1 {
			t.Fatalf("%s: Recoveries = %d, want 1", inner.name, stats.Recoveries)
		}
	}
}

// TestDeliveryOrderIsArrivalOrder pins the order of an uncombined run: a
// vertex sees its messages grouped by source worker ascending, each group
// in send order (sender id, then per-sender sequence, since a worker runs
// its vertices in id order) — the order every transport presents, which
// the counting sort must keep.
func TestDeliveryOrderIsArrivalOrder(t *testing.T) {
	const n, perSender = 30, 3
	for _, transport := range []func() Transport{MemoryTransport, TCPTransport} {
		var got []int64
		reg := NewRegistry()
		reg.Register(int64(0), Int64Codec{})
		eng, err := NewEngine(Options{
			Workers:       4,
			MaxSupersteps: 2,
			Transport:     transport(),
			Codecs:        reg,
			Compute: func(ctx *Context, v *Vertex, msgs []Message) {
				if ctx.Superstep() == 0 {
					for seq := 0; seq < perSender; seq++ {
						ctx.Send(7, int64(v.ID)*100+int64(seq))
					}
				} else if v.ID == 7 {
					for _, m := range msgs {
						got = append(got, m.(int64))
					}
				}
				ctx.VoteToHalt()
			},
		}, buildChain(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var want []int64
		for w := range eng.workers {
			for _, v := range eng.workers[w].vertices {
				for seq := 0; seq < perSender; seq++ {
					want = append(want, int64(v.ID)*100+int64(seq))
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delivered %v, want arrival order %v", got, want)
		}
	}
}
