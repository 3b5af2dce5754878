package pregel

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shp/internal/par"
)

// Transport moves message envelopes between workers at the superstep
// barrier. Implementations must deliver every (src, dst) batch exactly once
// per superstep and preserve per-pair send order; the engine appends
// arrivals in source-worker order, so delivery is deterministic regardless
// of transport timing.
//
// The interface is closed over this package's implementations (its methods
// take engine internals); select a backend with MemoryTransport or
// TCPTransport.
type Transport interface {
	// start prepares endpoints for the engine's workers before superstep 0.
	start(e *Engine) error
	// exchange ships every worker's per-destination outbox into the
	// destination inboxes and returns the byte count to charge to
	// SuperstepStats.BytesSent. The in-process backend reports the encoded
	// (or estimated) size of all traffic; the TCP backend reports the bytes
	// that actually crossed sockets, frame headers included.
	exchange(e *Engine, step int) (int64, error)
	// close releases sockets and buffers after the run.
	close() error
}

// MemoryTransport returns the in-process backend: envelopes move between
// workers as Go values, with no serialization. Bytes are accounted from
// registered codec sizes when the engine has a codec Registry, falling back
// to the Options.MessageBytes estimate per message otherwise.
func MemoryTransport() Transport { return &memoryTransport{} }

type memoryTransport struct{}

func (memoryTransport) start(*Engine) error { return nil }
func (memoryTransport) close() error        { return nil }

func (memoryTransport) exchange(e *Engine, step int) (int64, error) {
	var bytes int64
	for _, src := range e.workers {
		for _, ob := range src.out {
			for _, env := range ob {
				bytes += e.sizeOf(env)
			}
		}
	}
	// Deliver in source-worker order so each inbox sees batches from worker
	// 0 first, then 1, ... — the order every transport must present.
	par.Each(len(e.workers), func(dst int) {
		w := e.workers[dst]
		for src := range e.workers {
			for _, env := range e.workers[src].out[dst] {
				w.in.push(env)
			}
		}
	})
	for _, src := range e.workers {
		src.clearOutboxes()
	}
	return bytes, nil
}

// sizeOf returns the wire size to charge for one envelope: the codec-encoded
// size when a codec is registered for the message type, else the
// MessageBytes estimate, else 0.
func (e *Engine) sizeOf(env envelope) int64 {
	if reg := e.opts.Codecs; reg != nil {
		if n, err := reg.envelopeSize(env); err == nil {
			return int64(n)
		}
	}
	if est := e.opts.MessageBytes; est != nil {
		return int64(est(env.msg))
	}
	return 0
}

// maxReusedPayload bounds the receive buffer the TCP transport keeps per
// (dst, src) pair between frames.
const maxReusedPayload = 64 << 10

// frameHeaderSize is the fixed per-batch framing overhead on the TCP wire:
// payload length, superstep (desync check), and envelope count.
const frameHeaderSize = 12

// TCPTransport returns a loopback TCP backend: each worker listens on a
// 127.0.0.1 port, the mesh is dialed at start, and every superstep each
// worker ships one length-prefixed frame of codec-encoded envelopes to every
// peer (empty frames act as barrier acks). Same-worker messages never touch
// a socket, mirroring how a Giraph worker short-circuits local traffic.
//
// The engine must be configured with a codec Registry covering every message
// type, or exchange fails.
func TCPTransport() Transport { return &tcpTransport{} }

type tcpTransport struct {
	listeners []net.Listener
	send      [][]net.Conn // [src][dst], nil on the diagonal
	recv      [][]net.Conn // [dst][src], nil on the diagonal
	encBuf    [][][]byte   // [src][dst] reusable frame buffers
	decBuf    [][][]byte   // [dst][src] reusable payload buffers
	staging   [][][]envelope
}

func (t *tcpTransport) start(e *Engine) error {
	if e.opts.Codecs == nil {
		return fmt.Errorf("pregel: TCP transport requires Options.Codecs")
	}
	n := len(e.workers)
	t.listeners = make([]net.Listener, n)
	t.send = make([][]net.Conn, n)
	t.recv = make([][]net.Conn, n)
	t.encBuf = make([][][]byte, n)
	t.decBuf = make([][][]byte, n)
	t.staging = make([][][]envelope, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return err
		}
		t.listeners[i] = ln
		t.send[i] = make([]net.Conn, n)
		t.recv[i] = make([]net.Conn, n)
		t.encBuf[i] = make([][]byte, n)
		t.decBuf[i] = make([][]byte, n)
		t.staging[i] = make([][]envelope, n)
	}

	// Accept and dial concurrently: every worker dials every peer's
	// listener and identifies itself with a 4-byte hello.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		first := firstErr == nil
		if first {
			firstErr = err
		}
		mu.Unlock()
		if first {
			// A failed dial leaves the destination's accept loop waiting for
			// a hello that will never come; closing the listeners makes every
			// blocked Accept return so wg.Wait cannot deadlock.
			for _, ln := range t.listeners {
				ln.Close()
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for i := 0; i < n-1; i++ {
				conn, err := t.listeners[dst].Accept()
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					fail(err)
					return
				}
				src := int(binary.LittleEndian.Uint32(hello[:]))
				if src < 0 || src >= n || src == dst {
					fail(fmt.Errorf("pregel: bad transport hello from worker %d", src))
					return
				}
				mu.Lock()
				t.recv[dst][src] = conn
				mu.Unlock()
			}
		}(dst)
	}
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				conn, err := net.Dial("tcp", t.listeners[dst].Addr().String())
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(src))
				if _, err := conn.Write(hello[:]); err != nil {
					fail(err)
					return
				}
				t.send[src][dst] = conn
			}
		}(src)
	}
	wg.Wait()
	if firstErr != nil {
		t.close()
		return firstErr
	}
	return nil
}

func (t *tcpTransport) exchange(e *Engine, step int) (int64, error) {
	n := len(e.workers)
	var wire atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One writer and one reader goroutine per (src, dst) pair: with every
	// endpoint draining independently, a full socket buffer can never
	// deadlock the barrier.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				// Local traffic short-circuits the wire.
				t.staging[src][src] = append(t.staging[src][src][:0], e.workers[src].out[src]...)
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				nb, err := t.writeFrame(e, src, dst, step)
				if err != nil {
					// The write may have landed partially, poisoning the
					// frame stream to dst: blame dst and let the engine roll
					// back to a checkpoint rather than retry in place.
					fail(&WorkerFailure{Worker: dst, Superstep: step,
						Err: fmt.Errorf("worker %d -> %d: %w", src, dst, err)})
					// Unblock the peer's reader: no frame is coming.
					t.send[src][dst].Close()
					return
				}
				wire.Add(nb)
			}(src, dst)
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				if err := t.readFrame(e, src, dst, step); err != nil {
					fail(&WorkerFailure{Worker: src, Superstep: step,
						Err: fmt.Errorf("worker %d <- %d: %w", dst, src, err)})
					// Unblock a writer mid-frame on the dead connection.
					t.recv[dst][src].Close()
				}
			}(src, dst)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	par.Each(n, func(dst int) {
		w := e.workers[dst]
		for src := 0; src < n; src++ {
			for _, env := range t.staging[dst][src] {
				w.in.push(env)
			}
			t.staging[dst][src] = t.staging[dst][src][:0]
		}
	})
	for _, src := range e.workers {
		src.clearOutboxes()
	}
	return wire.Load(), nil
}

// writeFrame encodes worker src's outbox for dst and ships it, returning the
// bytes written (header included).
func (t *tcpTransport) writeFrame(e *Engine, src, dst, step int) (int64, error) {
	ob := e.workers[src].out[dst]
	buf := t.encBuf[src][dst]
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize, 256)
	}
	buf = buf[:frameHeaderSize]
	var err error
	for _, env := range ob {
		if buf, err = e.opts.Codecs.appendEnvelope(buf, env); err != nil {
			return 0, err
		}
	}
	if len(buf)-frameHeaderSize > 1<<30 {
		// Refuse to emit what readFrame would reject: a wrapped uint32
		// length header would desync the whole barrier.
		return 0, fmt.Errorf("frame payload too large (%d bytes)", len(buf)-frameHeaderSize)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeaderSize))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(step))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(ob)))
	t.encBuf[src][dst] = buf
	conn := t.send[src][dst]
	if d := e.opts.FrameTimeout; d > 0 {
		//shp:nondet(I/O deadline: wall time bounds a syscall, never feeds computation)
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := conn.Write(buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// readFrame receives one frame from src on dst's endpoint and decodes it
// into the staging area.
func (t *tcpTransport) readFrame(e *Engine, src, dst, step int) error {
	conn := t.recv[dst][src]
	if d := e.opts.FrameTimeout; d > 0 {
		// One deadline covers the whole frame: a peer that stalls mid-frame
		// is as dead as one that never sends the header.
		//shp:nondet(I/O deadline: wall time bounds a syscall, never feeds computation)
		conn.SetReadDeadline(time.Now().Add(d))
	}
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		return err
	}
	payloadLen := binary.LittleEndian.Uint32(header[0:4])
	gotStep := binary.LittleEndian.Uint32(header[4:8])
	count := binary.LittleEndian.Uint32(header[8:12])
	if int(gotStep) != step {
		return fmt.Errorf("superstep desync: frame for step %d during step %d", gotStep, step)
	}
	if payloadLen > 1<<30 {
		return fmt.Errorf("oversized frame (%d bytes)", payloadLen)
	}
	// Frames up to maxReusedPayload decode from a per-(dst, src) buffer,
	// which is safe because codecs copy out of the bytes they decode. Larger
	// frames (level-start registration traffic, a few per run) get a fresh
	// buffer: keeping one would pin megabytes per pair for the whole run.
	payload := t.decBuf[dst][src]
	if cap(payload) < int(payloadLen) {
		payload = make([]byte, payloadLen)
		if payloadLen <= maxReusedPayload {
			t.decBuf[dst][src] = payload
		}
	}
	payload = payload[:payloadLen]
	if _, err := io.ReadFull(conn, payload); err != nil {
		return err
	}
	envs, err := decodeFrame(e.opts.Codecs, payload, count, t.staging[dst][src][:0])
	if err != nil {
		return err
	}
	for i, env := range envs {
		if !e.owns(dst, env.dst) {
			return &FrameError{Envelope: i, Err: fmt.Errorf("vertex %d is not on worker %d", env.dst, dst)}
		}
	}
	t.staging[dst][src] = envs
	return nil
}

// decodeFrame decodes a frame payload of count envelopes, appending them to
// envs. The payload must hold exactly count canonical envelopes; anything
// else — truncation, trailing bytes, an unknown codec id, a non-minimal
// varint — is a *FrameError, so an accepted frame re-encodes to the same
// bytes.
func decodeFrame(reg *Registry, payload []byte, count uint32, envs []envelope) ([]envelope, error) {
	// Every envelope takes at least two bytes (destination and codec id):
	// reject impossible counts before looping over them.
	if uint64(count) > uint64(len(payload))/2 {
		return envs, &FrameError{Envelope: 0, Err: fmt.Errorf("%d bytes cannot hold %d envelopes", len(payload), count)}
	}
	for i := 0; i < int(count); i++ {
		env, used, err := reg.decodeEnvelope(payload)
		if err != nil {
			return envs, &FrameError{Envelope: i, Err: err}
		}
		payload = payload[used:]
		envs = append(envs, env)
	}
	if len(payload) != 0 {
		return envs, &FrameError{Envelope: int(count), Err: fmt.Errorf("%d trailing bytes", len(payload))}
	}
	return envs, nil
}

func (t *tcpTransport) close() error {
	for _, row := range t.send {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, row := range t.recv {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	t.send, t.recv, t.listeners = nil, nil, nil
	return nil
}
